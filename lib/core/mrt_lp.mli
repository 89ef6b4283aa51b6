(** Time-Constrained Flow Scheduling LP (19)–(21), Section 4.2.

    Every flow [e] has a set of active rounds [R(e)] and must be scheduled
    entirely in one of them; variables [x_{e,t}] fractionally distribute the
    flow over its active rounds subject to per-round port capacities.
    FS-MRT with target maximum response [rho] reduces to this with
    [R(e) = \[r_e, r_e + rho)], and the release/deadline model of Remark 4.2
    with [R(e) = \[r_e, deadline_e\]]. *)

type active = int -> int list
(** Active rounds per flow id, in increasing order. *)

val active_of_rho : Flowsched_switch.Instance.t -> int -> active
(** [R(e) = \[r_e, r_e + rho)]. *)

val active_of_deadlines : Flowsched_switch.Instance.t -> int array -> active
(** [R(e) = \[r_e, deadline_e\]] (inclusive deadline rounds). *)

type basis_key = Bvar of int * int | Bcap of bool * int * int | Bub of int * int
(** Model-independent description of one entry of an optimal basis: a basic
    flow variable [x_{e,t}], the basic slack of the capacity row
    [(is_input, port, round)], or a flow variable parked nonbasic at its
    declared upper bound [x_{e,t} = 1].  Stable across re-solves with
    different active sets, so the basis of one solve can seed a related
    one. *)

type fractional = {
  values : (int * int, float) Hashtbl.t;  (** [(flow, round) -> x_{e,t}]. *)
  rounds : int list;  (** All rounds carrying a capacity row. *)
  basis : basis_key list;  (** Optimal basis, for warm-starting. *)
}

val solve :
  ?residual:(bool * int * int -> int) ->
  ?warm:basis_key list ->
  Flowsched_switch.Instance.t -> active -> fractional option
(** [solve inst active] returns a fractional solution or [None] when the LP
    is infeasible.  [residual] optionally overrides the capacity available
    at [(is_input, port, round)] — the rounding procedure uses it to account
    for already-fixed flows.  Restricting each flow to a sub-list of its
    original active rounds is expressed by passing a narrower [active].
    [warm] seeds the simplex basis from a previous solve's [basis], or from
    an integral schedule given as one [Bvar (e, round)] per flow; keys not
    present in this model are ignored.  Every solution returned is checked
    against the model with [Model.is_feasible ~tol:Tol.art_infeasible], the
    threshold at which phase 1 declares the LP feasible, and [Failure] is
    raised if it fails, so no start, cold or warm, reports a false
    "feasible".  Each [x_{e,t} <= 1] is a declared variable bound, not a
    row. *)
