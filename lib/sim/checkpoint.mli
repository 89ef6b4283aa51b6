(** Checkpoint/resume for the grid commands, and the grid cell result's
    own encoding.

    A checkpoint is an append-only JSONL file: one compact JSON object per
    completed cell, written (and flushed) from the pool parent's
    [on_result] hook the moment the cell settles — so a run killed at cell
    190/200 keeps its 189 finished cells.  Lines are
    [{"crc": <hex CRC-32 of the rest>, "key": <the cell's {!key}>,
    "result": <{!encode} of its result>}], sealed by {!seal}.  [sweep],
    [matrix] and the shard workers all write this one format, so a [sweep]
    checkpoint also serves the [flows] cells of a [matrix] grid.

    Resuming re-runs the same grid with [resume:true]: cells whose key is
    already present are decoded ({!decode}) instead of recomputed,
    everything else runs normally, and results are merged back in grid
    order.  Because the decoder is the exact inverse of the encoder, the
    final artifact is byte-identical to an uninterrupted run (checkpointed
    cells keep their original wall-clock readings; only freshly computed
    cells carry new ones).

    Crash safety and corruption: a process killed mid-append leaves at most
    one partial final line.  Loading tolerates exactly that — a trailing
    line that fails to parse {e or} fails its CRC is discarded (and
    truncated away before appending resumes).  Anywhere else, a parse
    failure or a CRC mismatch is corruption, not a crash artifact, and
    raises [Failure] naming the offending line.  The per-line CRC is what
    separates the two cases for damage JSON parsing alone cannot see (a
    flipped digit inside a number still parses). *)

val key : Experiment.cell -> string
(** Canonical identity of a cell: the kind string as given and every other
    cell field, floats in hex ([%h]) so the key is exact, e.g.
    ["pareto|mode=flows|m=8|rate=0x1p+1|T=60|dmax=4|seed=7|lp=true"]. *)

val encode : Experiment.result -> Flowsched_util.Json.t
(** The result's own encoding: every cell field, the flow count, the
    entries, the wall-clock seconds and the whole bound record. *)

val decode : Experiment.cell -> Flowsched_util.Json.t -> (Experiment.result, string) result
(** Exact inverse of {!encode} for the cell it claims to be: every field
    must be present and well typed, and every identity field must match
    the cell, so a stale or spliced entry is rejected rather than
    adopted.  Re-encoding a decoded result reproduces the original bytes
    (nan bounds round-trip through [null]).  Never raises. *)

val lp_counters_json : Flowsched_obs.Metrics.snapshot -> Flowsched_util.Json.t
(** A bound's ["simplex.*"] counts as a JSON object: every counter and the
    two phase-time gauges in a fixed order, zeros included (also the
    ["lp_counters"] block of the sweep artifact). *)

type t

type entry = { key : string; result : Flowsched_util.Json.t }

val open_ : path:string -> resume:bool -> t
(** Open (creating if needed) the checkpoint at [path].  [resume:false]
    truncates any previous content — a fresh run; [resume:true] loads the
    valid prefix of existing lines and appends after it. *)

val loaded : t -> int
(** Number of completed-cell entries loaded at {!open_} (0 unless
    [resume:true]). *)

val close : t -> unit

val seal : key:string -> Flowsched_util.Json.t -> string
(** The exact line (without the trailing newline) written for an entry:
    the compact entry object prefixed with its own CRC-32.  Deterministic,
    so rewriting a loaded entry reproduces its bytes.  Exposed for tests
    that forge lines. *)

val read_entries : path:string -> entry list
(** Read-only load of a checkpoint file: the valid entries in file order
    (duplicate keys are preserved).  A missing file is empty.  Tolerates a
    torn final line; raises [Failure] on corruption anywhere else, with the
    offending line number. *)

val run :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_append:(string -> unit) ->
  t ->
  Experiment.cell list ->
  Experiment.result list
(** {!Experiment.run} with persistence: cells already present in the
    checkpoint are decoded in place of running, each newly completed cell
    is appended and flushed as it settles, and the merged list comes back
    in grid order.  [on_append] fires (with the cell key) after each fresh
    cell is durably appended — the shard workers' lease-heartbeat hook.  A
    stored entry that does not decode against its cell raises [Failure] —
    silently recomputing would mask corruption. *)
