(** The artifacts of the three grid commands, rendered from
    {!Experiment.result}s.  Each renderer only renders: the record's own
    encoding, which checkpoints and shard files carry, is
    {!Checkpoint.encode}. *)

val fig6_table : Experiment.result list list -> string
(** One row per {!Experiment.fig6_grid} row: average response time per
    heuristic, the LP (1)–(4) lower bound, and each heuristic's ratio to the
    LP — the content of the paper's Figure 6 panels.  A row's values are
    the means over its tries that drew a non-empty instance. *)

val fig7_table : Experiment.result list list -> string
(** Same layout for maximum response time against the binary-search LP
    bound — Figure 7. *)

val figures_json : ?jobs:int -> Experiment.result list list -> Flowsched_util.Json.t
(** The Figure 6/7 grid as a JSON artifact (schema ["flowsched-figures/1"]):
    row parameters, per-policy mean ART/MRT, and LP bounds (skipped bounds
    serialize as [null]).  [jobs] records the pool width used to produce
    the results. *)

val sweep_json :
  ?jobs:int -> ?metrics:Flowsched_util.Json.t -> Experiment.result list ->
  Flowsched_util.Json.t
(** A sweep run as a JSON artifact (schema ["flowsched-sweep/1"]): one
    object per cell with the kind string as given, workload parameters,
    flow count, per-policy ART/MRT, LP bounds and counters, and per-cell
    wall-clock seconds.  [metrics] (typically
    {!Flowsched_obs.Metrics.to_json} of the merged post-run registry) is
    appended as a top-level ["metrics"] block when given; it is opt-in
    because its timing gauges would break the byte-identical artifact
    guarantee across [--jobs]. *)

val matrix_json : Experiment.result list -> Flowsched_util.Json.t
(** The matrix artifact (schema ["flowsched-matrix/1"]): per cell the
    canonical {!Scenario.to_string} kind, mode, parameters, entries and
    bound.  It carries no timing or jobs metadata, so the inline
    [--jobs 1] run and a forked [--jobs N] run write byte-identical
    files. *)
