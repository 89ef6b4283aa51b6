(** FS-MRT solver (Theorem 3 applied through binary search).

    The minimum maximum response time [rho*] of a fractional schedule is
    found by binary search on the feasibility of LP (19)–(21) with
    [R(e) = \[r_e, r_e + rho)] — feasibility is monotone in [rho].  Since
    the LP is a relaxation, [rho*] lower bounds the optimal integral
    maximum response time; rounding the solution at [rho*] then yields a
    schedule with maximum response at most [rho*] <= OPT under port
    capacities augmented by [2 dmax - 1].  For unit demands that is the
    +1 augmentation that Theorem 2's 4/3-hardness shows to be necessary
    (Remark 4.4). *)

type solution = {
  rho : int;  (** Max response of the returned schedule (<= fractional opt). *)
  fractional_rho : int;  (** Minimum fractionally feasible rho (LP bound). *)
  schedule : Flowsched_switch.Schedule.t;
  augmented : Flowsched_switch.Instance.t;
      (** Capacities raised by [2 dmax - 1]; [schedule] is valid for it. *)
  rounding : Mrt_rounding.outcome;
}

val feasible_rho : Flowsched_switch.Instance.t -> int -> bool
(** Fractional feasibility of a target maximum response time. *)

val min_fractional_rho : ?hi:int -> ?warm_start:bool -> Flowsched_switch.Instance.t -> int
(** Binary search for the smallest fractionally feasible rho.  [hi]
    defaults to a horizon at which feasibility is guaranteed.
    [warm_start] (default [true]) seeds each probe LP with the optimal
    basis of the last feasible probe; the result is identical either way
    (feasibility does not depend on the vertex reached), only faster.  A
    probe checks the cooperative {!Flowsched_domains.Deadline} before
    solving, so executor timeouts interrupt the search between LPs. *)

val solve : ?rho:int -> Flowsched_switch.Instance.t -> solution
(** [solve inst] computes [rho = min_fractional_rho inst] (unless given)
    and rounds.  Raises [Failure] if the given [rho] is infeasible. *)

val solve_with_deadlines :
  Flowsched_switch.Instance.t -> deadlines:int array -> solution option
(** Remark 4.2: individual (inclusive) deadlines instead of a uniform
    response bound.  [None] when no schedule can meet the deadlines even
    fractionally; otherwise the schedule meets every deadline under the
    augmented capacities.  [rho]/[fractional_rho] report the achieved max
    response. *)
