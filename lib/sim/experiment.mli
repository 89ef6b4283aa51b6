(** Experiment grid driver for the Figure 6 / Figure 7 reproduction, and
    the sweep cells behind [flowsched sweep].

    A grid cell fixes the switch size [m], arrival rate (the paper's M), and
    generation length T; [tries] Poisson instances are generated with
    derived seeds and each policy plus the LP lower bounds are averaged over
    them — the paper's "each result is the average of 10 tries".  A sweep
    cell names any {!Scenario} kind by its string and runs one instance.

    LP bounds: average response uses LP (1)–(4) (its optimum divided by n
    lower bounds the achievable average response, Lemma 3.1 — the horizon is
    extended to cover every heuristic's makespan so the bound applies to
    them); maximum response uses binary search over the feasibility of LP
    (19)–(21), "the binary-search scheme [...] for finding the minimum
    feasible response time". *)

type cell_config = {
  m : int;
  rate : float;
  rounds : int;
  tries : int;
  seed : int;
  with_lp : bool;  (** Compute LP lower bounds (the expensive part). *)
}

type cell_result = {
  config : cell_config;
  flows_mean : float;  (** Mean number of generated flows. *)
  avg_response : (string * float) list;  (** Policy name -> mean avg response. *)
  max_response : (string * float) list;  (** Policy name -> mean max response. *)
  lp_avg_bound : float;  (** Mean LP lower bound on avg response; nan if skipped. *)
  lp_max_bound : float;  (** Mean min fractional rho; nan if skipped. *)
}

val run_cell : policies:Flowsched_online.Policy.t list -> cell_config -> cell_result

val run_grid :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  cell_config list -> cell_result list
(** Runs every cell through {!map_cells} and returns results in input
    order.  Each cell derives all randomness from its own seed, so the
    output of [jobs > 1] forked workers is byte-identical to the inline
    [jobs = 1] run.  A cell gets the pool's default retry budget of 1; one
    that fails twice raises [Failure].  A SIGINT or SIGTERM mid-run raises
    {!Flowsched_exec.Pool.Interrupted} after draining the pool. *)

(** {2 Sweep cells}

    The unit of the machine-readable sweep artifact (see
    {!Report.sweep_json}): a single workload instance per cell — no
    averaging across tries — with every policy's average (ART) and maximum
    (MRT) response, optional LP lower bounds, and the cell's wall-clock. *)

type sweep_config = {
  workload : string;
      (** A {!Scenario.of_string} kind string, kept verbatim (e.g.
          ["pareto:1.5"]) in artifacts, checkpoint keys and shard
          fingerprints. *)
  ports : int;
  arrival_rate : float;  (** The paper's M (flows per round). *)
  horizon : int;  (** Generation rounds T. *)
  max_demand : int;  (** Only used by the demand-carrying kinds. *)
  sweep_seed : int;
  lp : bool;  (** Compute LP lower bounds (the expensive part). *)
}

type sweep_policy_result = { policy : string; art : float; mrt : int }

type sweep_result = {
  sweep : sweep_config;
  flows : int;
  per_policy : sweep_policy_result list;
  lp_avg : float;  (** nan when [lp = false], the cell is empty, or the LP errored. *)
  lp_max : float;
  lp_counters : Flowsched_lp.Simplex.counters option;
      (** Simplex perf counters for this cell's LP section (both bounds);
          [None] when no LP ran. *)
  lp_error : string option;
      (** Graceful LP degradation: when the cell's LP section blows its
          pivot budget ([Simplex.Iteration_limit]) or fails ([Failure]),
          the bounds are nan and this carries the error text — the grid
          keeps going.  Counted under ["sweep.lp_errors"]. *)
  wall_s : float;  (** Wall-clock seconds spent on this cell. *)
}

val sweep_instance : sweep_config -> Flowsched_switch.Instance.t
(** The (deterministic) instance a sweep cell runs on: {!Scenario.instance}
    on the cell's parsed [workload].  Raises [Invalid_argument] on a kind
    string {!Scenario.of_string} rejects or on parameters the generator
    rejects. *)

val map_cells :
  jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_result:('a -> 'b -> unit) ->
  describe:('a -> string) ->
  progress:(string -> unit) ->
  f:('a -> 'b) ->
  'a list -> 'b list
(** The one cell fan-out, under {!run_grid}, {!run_sweep} and the scenario
    matrix: [f] over the items on {!Flowsched_exec.Pool.map} ([jobs <= 1]
    inline, the reference path; more forks that many workers), results in
    input order.  [timeout] bounds each attempt's wall clock, [retries]
    (default 1) is the budget beyond the first attempt, and [faults]
    injects a deterministic chaos plan (see {!Flowsched_exec.Faults}).
    [progress] gets one line per pool event, and [on_result] fires in the
    parent once per completed item, in completion order.  An item that
    spends its retry budget raises [Failure]; a SIGINT or SIGTERM raises
    {!Flowsched_exec.Pool.Interrupted} after draining the pool. *)

val run_sweep_cell :
  policies:Flowsched_online.Policy.t list -> sweep_config -> sweep_result

val run_sweep :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_result:(sweep_config -> sweep_result -> unit) ->
  sweep_config list -> sweep_result list
(** {!run_sweep_cell} over the cells through {!map_cells}, with its
    timeout, retry, fault and interrupt contract; the results, less their
    timing fields, are byte-identical across [jobs].  [on_result] fires
    in the parent once per {e completed} cell, in completion order, as
    soon as its result is merged — the hook {!Checkpoint} uses to persist
    progress — so on an interrupt everything already passed to it is
    durable. *)

val lp_failure_for_tests : exn option ref
(** Test seam (default [None]): when set, {!run_sweep_cell}'s LP section
    raises this exception instead of solving, exercising the [lp_error]
    degradation path.  Never set outside the test suite. *)

val fig6_grid :
  ?m:int -> ?tries:int -> ?seed:int -> ?lp_rounds_limit:int ->
  congestion:float list -> rounds:int list -> unit -> cell_config list
(** The Figure 6/7 grid: one cell per (congestion, T) with
    [rate = congestion * m].  Congestion is the paper's M/150; its values
    {1/3, 2/3, 1, 2, 4} are reproduced at a scaled-down [m] (default 6).
    LP bounds are enabled only for cells with [rounds <= lp_rounds_limit]
    (default 12), mirroring the paper's "LPs are solved only for
    T in {10..20} to avoid prohibitively long execution times". *)
