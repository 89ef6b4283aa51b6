(** Rendering experiment results as the paper's figures (text form). *)

val fig6_table : Experiment.cell_result list -> string
(** One row per cell: average response time per heuristic, the LP (1)–(4)
    lower bound, and each heuristic's ratio to the LP — the content of the
    paper's Figure 6 panels. *)

val fig7_table : Experiment.cell_result list -> string
(** Same layout for maximum response time against the binary-search LP
    bound — Figure 7. *)

val csv : objective:[ `Avg | `Max ] -> Experiment.cell_result list -> string
(** Machine-readable dump: [m,rate,rounds,tries,flows,policy,value,lp]. *)

val figures_json : ?jobs:int -> Experiment.cell_result list -> Flowsched_util.Json.t
(** The Figure 6/7 grid as a JSON artifact (schema ["flowsched-figures/1"]):
    cell parameters, per-policy mean ART/MRT, and LP bounds (skipped bounds
    serialize as [null]).  [jobs] records the pool width used to produce
    the results. *)

val lp_counters_json : Flowsched_lp.Simplex.counters -> Flowsched_util.Json.t
(** Simplex perf-counter snapshot as a JSON object (shared by the sweep
    artifact and the LP micro-bench artifact). *)

val sweep_cell_json : Experiment.sweep_result -> Flowsched_util.Json.t
(** One sweep cell as a JSON object (the per-cell payload of
    {!sweep_json}); also the unit stored per line in a
    {!Checkpoint} file. *)

val cell_json : Experiment.cell_result -> Flowsched_util.Json.t
(** One Figure 6/7 grid cell as a JSON object, config included. *)

val strip_sweep_timing : Experiment.sweep_result -> Experiment.sweep_result
(** The deterministic projection of a sweep result: per-cell wall-clock
    and the LP phase-time counters zeroed, everything else untouched.  Two
    independent computations of the same cell must serialize identically
    after this — the merge pipeline's duplicate audit and the chaos tests
    both rely on it. *)

val sweep_result_of_json :
  sweep:Experiment.sweep_config ->
  Flowsched_util.Json.t ->
  (Experiment.sweep_result, string) result
(** Decode a {!sweep_cell_json} object back into a result, taking the
    config from [sweep] (the identifying fields in the JSON are checked
    against it).  Exact inverse of the encoder: re-encoding the decoded
    value reproduces the original bytes — skipped bounds round-trip
    through [null] as nan — which is what lets a resumed sweep emit an
    artifact byte-identical to an uninterrupted run. *)

val sweep_json :
  ?jobs:int -> ?metrics:Flowsched_util.Json.t -> Experiment.sweep_result list ->
  Flowsched_util.Json.t
(** A sweep run as a JSON artifact (schema ["flowsched-sweep/1"]): one
    object per cell with workload parameters, flow count, per-policy
    ART/MRT, LP bounds, and per-cell wall-clock seconds.  [metrics]
    (typically {!Flowsched_obs.Metrics.to_json} of the merged post-run
    registry) is appended as a top-level ["metrics"] block when given; it
    is opt-in because its timing gauges would break the byte-identical
    artifact guarantee across [--jobs]. *)
