(** Exact solvers by exhaustive search — test oracles.

    Exponential-time branch and bound over per-flow round choices.  Only
    meant for tiny instances (roughly n <= 10); used by the test suite to
    validate LP lower bounds, approximation guarantees, and the hardness
    reduction, and by the benches to report true optima on small cells. *)

val feasible_with_rho : Flowsched_switch.Instance.t -> rho:int ->
  Flowsched_switch.Schedule.t option
(** A schedule with maximum response time at most [rho] under the original
    capacities, or [None] if none exists. *)

val min_max_response : Flowsched_switch.Instance.t ->
  (int * Flowsched_switch.Schedule.t) option
(** Smallest achievable maximum response time, by trying rho = 1, 2, ...
    up to a horizon where the serial schedule fits. *)

val min_total_response : ?horizon:int -> Flowsched_switch.Instance.t ->
  int * Flowsched_switch.Schedule.t
(** Minimum total response time, by branch and bound over assignments within
    [horizon] (default: serial-schedule horizon, which always contains an
    optimal schedule). *)
