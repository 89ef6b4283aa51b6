(** Checkpoint/resume for experiment grids.

    A checkpoint is an append-only JSONL file: one compact JSON object per
    completed cell, written (and flushed) from the pool parent's
    [on_result] hook the moment the cell settles — so a run killed at cell
    190/200 keeps its 189 finished cells.  Lines are
    [{"crc": <hex CRC-32 of the rest>, "kind": "sweep"|"matrix", "key":
    <canonical config key>, "result": <cell object>}] with the result
    encoded by {!Report.sweep_cell_json} (or the matrix's cell encoder) and
    the checksum computed by {!seal}.

    Resuming re-runs the same grid with [resume:true]: cells whose key is
    already present are decoded ({!Report.sweep_result_of_json}) instead of
    recomputed, everything else runs normally, and results are merged back
    in grid order.  Because the decoders are exact inverses of the
    encoders, the final artifact is byte-identical to an uninterrupted run
    (checkpointed cells keep their original wall-clock readings; only
    freshly computed cells carry new ones).

    Crash safety and corruption: a process killed mid-append leaves at most
    one partial final line.  Loading tolerates exactly that — a trailing
    line that fails to parse {e or} fails its CRC is discarded (and
    truncated away before appending resumes).  Anywhere else, a parse
    failure or a CRC mismatch is corruption, not a crash artifact, and
    raises [Failure] naming the offending line.  The per-line CRC is what
    separates the two cases for damage JSON parsing alone cannot see (a
    flipped digit inside a number still parses). *)

type t

type entry = { kind : string; key : string; result : Flowsched_util.Json.t }

val open_ : path:string -> resume:bool -> t
(** Open (creating if needed) the checkpoint at [path].  [resume:false]
    truncates any previous content — a fresh run; [resume:true] loads the
    valid prefix of existing lines and appends after it. *)

val loaded : t -> int
(** Number of completed-cell entries loaded at {!open_} (0 unless
    [resume:true]). *)

val close : t -> unit

val seal : kind:string -> key:string -> Flowsched_util.Json.t -> string
(** The exact line (without the trailing newline) {!append} writes for an
    entry: the compact entry object prefixed with its own CRC-32.
    Deterministic, so rewriting a loaded entry reproduces its bytes.
    Exposed for the merge pipeline and for tests that forge lines. *)

val read_entries : path:string -> entry list
(** Read-only load of a checkpoint file: the valid entries in file order
    (duplicate keys are preserved).  A missing file is empty.  Tolerates a
    torn final line; raises [Failure] on corruption anywhere else, with the
    offending line number. *)

val append : t -> kind:string -> key:string -> Flowsched_util.Json.t -> unit
(** Append one sealed entry and flush. *)

val resume_run :
  kind:string ->
  key:('cell -> string) ->
  ?on_append:(string -> unit) ->
  decode:('cell -> Flowsched_util.Json.t -> ('result, string) result) ->
  encode:('result -> Flowsched_util.Json.t) ->
  run_cells:((('cell -> 'result -> unit) -> 'cell list -> 'result list)) ->
  t ->
  'cell list ->
  'result list
(** The generic checkpointed-run skeleton behind {!run_sweep}, exposed so
    other grids (the scenario matrix, shard workers) can reuse it: cells
    whose [key] is already stored are [decode]d in place, the remainder
    goes through [run_cells] with a persist-on-settle callback, and results
    merge back in input order.
    [on_append] fires (with the cell key) after each fresh cell is durably
    appended — the shard workers' lease-heartbeat hook.  A stored entry
    that no longer decodes raises [Failure] — silently recomputing would
    mask corruption. *)

val run_sweep :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_append:(string -> unit) ->
  t ->
  Experiment.sweep_config list ->
  Experiment.sweep_result list
(** {!Experiment.run_sweep} with persistence: cells already present in the
    checkpoint are skipped (their recorded result is returned in place),
    each newly completed cell is appended and flushed as it settles, and
    the merged list comes back in grid order.  A checkpoint entry that no
    longer decodes, or that disagrees with its cell's config, raises
    [Failure] — silently recomputing would mask corruption. *)

val sweep_key : Experiment.sweep_config -> string
(** Canonical identity of a sweep cell (every config field, including the
    [lp] flag). *)
