(** Metrics registry: named counters, gauges, and log-scale histograms
    with typed handles, domain-safe by construction.

    Handles are looked up (or created) once by name and are shared freely
    across domains; the cells behind them are {e domain-local}
    ([Domain.DLS]), so increments after lookup are a single unsynchronized
    record-field mutation, cheap enough for hot loops like the simplex
    pivot path and race-free under OCaml 5 domains.  {!snapshot}, {!reset},
    and {!absorb} act on the calling domain's cells only: a forked
    {!Flowsched_exec.Pool} worker snapshots its own contribution and the
    parent {!absorb}s it, so process totals flow through the same merge
    algebra whether work ran inline or across forked processes.  Snapshots
    are plain data — they marshal across the fork boundary, and a spawned
    domain can return one through [Domain.join] the same way.

    Merge semantics are chosen so that [merge] is associative and, on
    disjoint names, commutative:

    - counters add;
    - gauges add (they are additive accumulators, e.g. seconds spent in a
      phase — use {!add_gauge}; [set_gauge] overwrites and is only safe for
      single-process diagnostics);
    - histograms add bucket-wise (plus [sum] and [count]). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** [counter name] returns the handle registered under [name], creating it
    on first use.  Raises [Invalid_argument] if [name] is already registered
    as a different metric kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val add_gauge : gauge -> float -> unit
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation.  Buckets are log-scale: bucket 0 collects
    non-positive values, bucket [i] (1..63) collects values whose binary
    exponent is [i - 32], so the representable range spans roughly
    [2^-31 .. 2^31] with one bucket per octave. *)

val bucket_upper_bound : int -> float
(** Upper bound (exclusive) of log-scale bucket [i]; [0.] for bucket 0. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile ([q] in [\[0,1\]]) of
    the observations as the upper bound of the first log-scale bucket whose
    cumulative occupancy reaches rank [ceil (q * count)] — an upper estimate
    within one octave of the true quantile.  [nan] when the histogram is
    empty; raises [Invalid_argument] on an out-of-range [q].  Used by the
    serve loop's status snapshots (p50/p99 slot-decision latency). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (int * int) list; sum : float; count : int }
      (** [buckets] maps bucket index to occupancy; only nonzero buckets are
          listed, in increasing index order. *)

type snapshot = (string * value) list
(** Sorted by name ([String.compare]); plain data, safe to [Marshal]. *)

val snapshot : unit -> snapshot
(** The calling domain's cells (only metrics this domain has touched;
    absent means zero). *)

val reset : unit -> unit
(** Zero every metric cell of the calling domain (handles stay valid;
    other domains' cells are untouched). *)

val merge : snapshot -> snapshot -> snapshot
(** Name-wise sum; raises [Invalid_argument] on a kind mismatch. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff after before]: name-wise subtraction.  Entries equal in both are
    dropped, so a diff of an untouched registry is [[]]. *)

val counter_in : snapshot -> string -> int
(** The counter [name] in a snapshot or a {!diff}; [0] when absent (a diff
    drops what did not move). *)

val gauge_in : snapshot -> string -> float
(** Likewise for a gauge; [0.] when absent. *)

val absorb : snapshot -> unit
(** Add a snapshot (e.g. a worker's per-job {!diff}) into the live
    registry, creating metrics as needed. *)

val to_json : snapshot -> Flowsched_util.Json.t
(** [{"name": 42, "g": 1.5, "h": {"count": .., "sum": .., "buckets": [[le,
    n], ..]}, ..}] — counters as ints, gauges as floats, histograms as
    objects with [le] the bucket upper bound. *)

val to_text : snapshot -> string
(** One line per metric, sorted by name: [counter NAME VALUE],
    [gauge NAME VALUE], [histogram NAME count=N sum=S mean=M]. *)
