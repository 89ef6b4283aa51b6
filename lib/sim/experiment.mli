(** The one grid cell behind [flowsched figures], [sweep] and [matrix].

    A cell runs every policy on one workload instance and bounds it:
    average (ART) and maximum (MRT) response per algorithm, against a lower
    bound chosen by the cell's {!Matrix.mode}.  [sweep] is a grid of
    {!Matrix.Flows} cells, [matrix] the same grid over every mode, and a
    Figure 6/7 row the mean over its tries' cells ({!fig6_grid}) — the
    paper's "each result is the average of 10 tries".

    LP bounds: average response uses LP (1)–(4) (its optimum divided by n
    lower bounds the achievable average response, Lemma 3.1 — the horizon is
    extended to cover every heuristic's makespan so the bound applies to
    them); maximum response uses binary search over the feasibility of LP
    (19)–(21), "the binary-search scheme [...] for finding the minimum
    feasible response time". *)

type cell = {
  workload : string;
      (** The kind string as given (e.g. ["pareto"]), kept verbatim in
          sweep artifacts, checkpoint keys and shard fingerprints. *)
  spec : Scenario.spec;  (** [workload] parsed, with the cell's scale and seed. *)
  mode : Matrix.mode;
  lp : bool;  (** Compute LP lower bounds (the expensive part). *)
}

type entry = { name : string; art : float; mrt : int }
(** One algorithm's average and maximum response time (for Coflow cells:
    weighted average and coflow maximum); [nan] and [0] on an empty
    instance. *)

type bound = {
  kind : string;  (** ["lp"] | ["lp-relaxed"] | ["bottleneck"] | ["none"]. *)
  avg : float;  (** Lower bound on the average objective; nan if none. *)
  max : float;  (** Lower bound on the maximum objective; nan if none. *)
  error : string option;
      (** Graceful LP degradation: when the cell's LP section blows its
          pivot budget ([Simplex.Iteration_limit]) or fails ([Failure]),
          the bounds are nan and this carries the error text — the grid
          keeps going.  Counted under ["sweep.lp_errors"]. *)
  lp_counters : Flowsched_obs.Metrics.snapshot option;
      (** The ["simplex.*"] registry entries the LP section moved (a
          {!Flowsched_obs.Metrics.diff}); [None] when no LP ran. *)
}

type result = {
  cell : cell;
  flows : int;
  entries : entry list;
  bound : bound;
  wall_s : float;  (** Wall-clock seconds spent on this cell. *)
}

val grid :
  kinds:string list ->
  modes:Matrix.mode list ->
  m:int ->
  rates:float list ->
  rounds:int list ->
  max_demand:int ->
  seeds:int list ->
  lp:bool ->
  (cell list, string) Stdlib.result
(** Every (kind, mode, rate, rounds, seed) cell, nested in that order.
    [Error] on a kind string {!Scenario.of_string} rejects. *)

val run_cell : policies:Flowsched_online.Policy.t list -> cell -> result
(** [policies] drive the Flows and Endpoint modes; Coflow mode has its own
    fixed algorithm set (wsebf/sebf/flow-fifo).  Runs under a
    ["sweep.cell"] span. *)

val run :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_result:(cell -> result -> unit) ->
  cell list -> result list
(** {!run_cell} over the cells on {!Flowsched_exec.Pool.map} ([jobs <= 1]
    inline, the reference path; more forks that many workers), results in
    input order and, less their timing fields ({!strip_timing}),
    byte-identical across [jobs].  [timeout] bounds each attempt's wall
    clock, [retries] (default 1) is the budget beyond the first attempt,
    and [faults] injects a deterministic chaos plan (see
    {!Flowsched_exec.Faults}).  [progress] gets one line per pool event,
    and [on_result] fires in the parent once per {e completed} cell, in
    completion order, as soon as its result is merged — the hook
    {!Checkpoint} uses to persist progress.  A cell that spends its retry
    budget raises [Failure]; a SIGINT or SIGTERM raises
    {!Flowsched_exec.Pool.Interrupted} after draining the pool. *)

val strip_timing : result -> result
(** The deterministic projection of a result: wall-clock and the LP
    phase-time gauges dropped, everything else untouched.  Two
    computations of the same cell must encode identically after this — the
    merge's duplicate audit and the chaos tests rely on it. *)

val lp_failure_for_tests : exn option ref
(** Test seam (default [None]): when set, {!run_cell}'s LP section raises
    this exception instead of solving, exercising the [error] degradation
    path.  Never set outside the test suite. *)

(** {2 Figures 6 and 7} *)

val fig6_grid :
  ?m:int -> ?tries:int -> ?seed:int -> ?lp_rounds_limit:int ->
  congestion:float list -> rounds:int list -> unit -> cell list list
(** The Figure 6/7 grid: one row per (congestion, T) with
    [rate = congestion * m], each row the [tries] Poisson cells seeded
    [s, s + 1000, ...] from the row's seed [s].  Congestion is the paper's
    M/150; its values {1/3, 2/3, 1, 2, 4} are reproduced at a scaled-down
    [m] (default 6).  LP bounds are enabled only for rows with
    [rounds <= lp_rounds_limit] (default 12), mirroring the paper's "LPs
    are solved only for T in {10..20} to avoid prohibitively long
    execution times".  Raises [Invalid_argument] when [tries < 1]. *)

val run_grid :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  cell list list -> result list list
(** Runs every row as one job of {!run}'s pool and returns the rows in
    input order (see {!Report.figures_json} for their means).  An LP
    failure in a try fails its row's job instead of averaging in a nan, so
    after the default retry the run raises [Failure]. *)
