(** The verifying merge: fold per-shard checkpoint files back into one
    artifact, refusing anything that smells wrong.

    Validation, in order:

    - every manifest in the directory must carry this grid's fingerprint,
      shard count, kind, and policy set — shards cut from a different grid
      (or run with different policies) can never be merged;
    - every checkpoint entry must name a cell of the grid and decode
      against that cell ({!Flowsched_sim.Checkpoint.decode}, the exact
      inverse of the encoder, checks every identity field);
    - a cell recorded by two shards — or twice in one file — must agree
      byte-for-byte on its deterministic projection (timing fields
      stripped).  Duplicates are a {e free determinism audit}: a conflict
      is an error, never last-writer-wins;
    - cells with no record anywhere are reported as [missing] with the
      shard that owns them; callers decide whether partial output is
      acceptable ([flowsched merge] exits nonzero unless
      [--allow-partial]).

    The merged result list is in grid order with each cell's original
    recorded bytes (wall-clock included), so when complete it serializes —
    via [Report.sweep_json ~jobs:1] — into the same artifact an
    uninterrupted single-box [--jobs 1] run writes, up to the documented
    per-cell timing fields. *)

type report = {
  shards : int;  (** Shard count declared by the manifests. *)
  manifests_present : int list;  (** Shard indexes that registered. *)
  expected_cells : int;
  found_cells : int;
  duplicate_cells : int;  (** Cells recorded more than once (all audited). *)
  missing : (string * int) list;  (** Unrecorded cell key, owning shard. *)
}

val sweep :
  dir:string ->
  policies:string list ->
  Flowsched_sim.Experiment.cell list ->
  (Flowsched_sim.Experiment.result list * report, string) result
(** Merge the sweep shards in [dir] against the grid [cells] (as built
    from the same CLI flags the workers ran with).  [Ok] carries the
    recovered results in grid order — possibly fewer than expected; check
    [report.missing] — and the audit report.  [Error] on any validation
    failure: fingerprint/policy mismatch, corrupt checkpoint, foreign or
    undecodable entry, or conflicting duplicates. *)
