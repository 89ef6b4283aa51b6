(** FS-MRT solver (Theorem 3 applied through binary search).

    The minimum maximum response time [rho*] of a fractional schedule is
    the least [rho] at which LP (19)–(21) with [R(e) = \[r_e, r_e + rho)]
    is feasible; feasibility is monotone in [rho], so a binary search finds
    it.  The search runs inside a bracket [\[lb, ub\]] whose two ends are
    certified without an LP: [lb - 1] is infeasible by a per-port counting
    bound implied by the capacity rows (19), and [ub] is feasible because
    it is the max response of a valid integral schedule (FIFO's).  When
    [lb = ub] no LP runs at all.  Every LP (19)–(21) solved here, each
    probe and the rounding's first LP, starts from that FIFO schedule
    (built once per call): the flows it serves in time start basic at 1,
    so phase 1 only has the late flows' artificials to clear, and at
    [rho = ub] it is skipped.  The feasible answer of each probe is
    checked against its model ({!Mrt_lp.solve}).  Since the LP is a
    relaxation, [rho*] lower bounds the optimal integral maximum response
    time; rounding the solution at [rho*] then yields a schedule with
    maximum response at most [rho*] <= OPT under port capacities augmented
    by [2 dmax - 1].
    For unit demands that is the +1 augmentation that Theorem 2's
    4/3-hardness shows to be necessary (Remark 4.4). *)

type solution = {
  rho : int;  (** Max response of the returned schedule (<= fractional opt). *)
  fractional_rho : int;  (** Minimum fractionally feasible rho (LP bound). *)
  schedule : Flowsched_switch.Schedule.t;
  augmented : Flowsched_switch.Instance.t;
      (** Capacities raised by [2 dmax - 1]; [schedule] is valid for it. *)
  rounding : Mrt_rounding.outcome;
}

val feasible_rho : Flowsched_switch.Instance.t -> int -> bool
(** Fractional feasibility of a target maximum response time: one LP
    (19)–(21) solve started from {!Baselines.fifo}'s schedule.  At FIFO's
    own max response (or above) it runs no pivot and skips phase 1. *)

val rho_bracket : Flowsched_switch.Instance.t -> int * int
(** [(lb, ub)] with [lb <= rho* <= ub], computed without an LP.

    - [lb], the window bound: the flows at a port [p] released in
      [\[a, b\]], of total demand [D], must all be served in rounds
      [\[a, b + rho - 1\]], so [rho >= ceil(D / c_p) - (b - a)].  [lb] is
      the maximum of this over every input and output port and every pair
      of release times, and 1; [O(sum_p k_p^2)] for [k_p] flows at [p].
    - [ub]: the max response of {!Baselines.fifo}'s schedule, at least 1.
      The schedule is checked against the unaugmented capacities, and
      [Failure] is raised if it is not valid. *)

val min_fractional_rho : Flowsched_switch.Instance.t -> int
(** The smallest fractionally feasible rho: a binary search inside
    {!rho_bracket}, keeping [ub] feasible and [lb - 1] infeasible, with one
    FIFO-started LP (19)–(21) solve per probe.  When [lb = ub] it returns at once,
    with no LP.  An empty instance gives 1.  A cell timeout of the fork
    pool SIGKILLs its worker mid-search; the inline path discards an
    over-budget result once the search returns.  Counts probes in the
    [mrt.rho_probes] and [mrt.rho_probes_feasible] counters; the
    [mrt.min_fractional_rho] span carries the bracket as [lb] and [ub]. *)

val solve : ?rho:int -> Flowsched_switch.Instance.t -> solution
(** [solve inst] computes [rho = min_fractional_rho inst] (unless given)
    and rounds, starting the rounding from FIFO's schedule, never from a
    probe's basis.  When the search's last feasible probe was made at
    [rho], that probe's solution is the rounding's first LP, which is then
    not solved again: the two build the same model from the same start.
    So [solve inst] and [solve ~rho:(min_fractional_rho inst) inst] return
    the same outcome.  When [rho] is FIFO's max response the rounding ends
    after one LP with FIFO's own schedule.  Raises [Failure] if the given
    [rho] is infeasible. *)

val solve_with_deadlines :
  Flowsched_switch.Instance.t -> deadlines:int array -> solution option
(** Remark 4.2: individual (inclusive) deadlines instead of a uniform
    response bound.  [None] when no schedule can meet the deadlines even
    fractionally; otherwise the schedule meets every deadline under the
    augmented capacities.  The rounding starts from FIFO's schedule, whose
    flows past their deadlines drop out of the start.  [rho]/[fractional_rho]
    report the achieved max response. *)
