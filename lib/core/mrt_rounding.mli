(** Rounding the time-constrained LP (Theorem 3 / Lemma 4.3).

    The paper rounds a fractional solution of LP (19)–(21) with the
    Karp–Leighton–Rivest–Thompson–Vazirani–Vazirani theorem: there is an
    integral solution in which every assignment row (20) holds exactly and
    every capacity row (19) is exceeded by at most [2 dmax - 1] (demands are
    integral, and each column touches two capacity rows with coefficient
    [d_e <= dmax]).

    We realize that guarantee by iterative LP relaxation, the constructive
    counterpart used throughout degree-bounded rounding: re-solve to a
    vertex, freeze flows whose variable hit 1, restrict every flow's active
    rounds to the current fractional support, and delete a capacity row as
    soon as its worst-case remaining load — fixed load plus the total demand
    of flows that could still land on it — cannot exceed
    [c_p + 2 dmax - 1].  Deleted rows can never be violated beyond the
    bound, assignment rows are never deleted, and vertex solutions shrink
    the support each round, so the procedure terminates with every flow in
    exactly one active round. *)

type outcome = {
  schedule : Flowsched_switch.Schedule.t;
  overflow : int;  (** Measured max port overload w.r.t. original capacities. *)
  bound : int;  (** The guarantee [2 dmax - 1]. *)
  within_guarantee : bool;  (** [overflow <= bound]. *)
  lp_solves : int;
  fallback_drops : int;
      (** Rows dropped by the anti-stall fallback rather than the safe rule;
          0 in healthy runs, and only then is the bound formally implied. *)
}

val round :
  ?start:Mrt_lp.basis_key list ->
  ?first:Mrt_lp.fractional ->
  Flowsched_switch.Instance.t ->
  Mrt_lp.active ->
  outcome option
(** [None] when the LP itself is infeasible (then no schedule meets the
    deadlines at all, by Theorem 3's relaxation argument).  The first
    solve starts from [start], in the instance's flow ids (keys outside the
    active rounds drop out; cold without [start]), and each re-solve from
    the previous round's optimal basis, translated through the shrinking
    flow renumbering.  {!Mrt_scheduler} passes
    FIFO's schedule, one [Bvar (e, round)] per flow: the flows it serves
    inside their active rounds start basic at 1, and when it serves them
    all phase 1 is skipped, the first vertex is FIFO's own integral point
    and the rounding ends after that one LP.  Which vertex the first solve
    reaches depends on the start, so the schedule does; the guarantees
    above do not.  [first], when given, is taken as the first LP's
    solution instead of solving it: it must be what
    [Mrt_lp.solve ?warm:start inst active] returns, as
    {!Mrt_scheduler.solve} passes its search's probe at [rho*].  It still
    counts in [lp_solves], which counts the LPs the schedule rests on. *)
