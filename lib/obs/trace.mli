(** Span tracing with Chrome trace-event output.

    Disabled by default: {!with_span} then costs one boolean load before
    tail-calling the wrapped function, so instrumentation can stay in place
    permanently.  When enabled via {!start}, each span records a name,
    nesting depth, and wall-clock interval; {!write} emits the buffer as
    Chrome [chrome://tracing] / Perfetto trace-event JSON (complete ["X"]
    events with microsecond timestamps).

    Timestamps come from [Unix.gettimeofday] clamped to be non-decreasing
    (the stdlib has no monotonic clock), so span durations are never
    negative even across NTP steps.

    Domain-safety: the enable flag and time origin are process-global
    (atomics), while the span buffer, nesting depth, and clock clamp are
    domain-local — each domain records into its own buffer without
    contention.  The domains executor {!drain}s each worker domain's
    buffer at join time and {!absorb}s the spans into the coordinating
    domain, so one trace file covers all domains (spans share the {!start}
    time origin).  {!Flowsched_exec.Pool} workers instead disable tracing
    after [fork] — only metrics travel back across the result frames. *)

type span = {
  name : string;
  cat : string;  (** trace-event category, default ["flowsched"] *)
  ts_us : float;  (** start, microseconds since {!start} *)
  dur_us : float;
  depth : int;  (** nesting depth at entry; top-level spans have depth 0 *)
  args : (string * Flowsched_util.Json.t) list;
}

val enabled : unit -> bool

val now_us : unit -> float
(** The clock spans use: wall time in microseconds, clamped to be
    non-decreasing on the calling domain.  Readable whether or not tracing
    is enabled. *)

val start : unit -> unit
(** Enable tracing and clear any previously recorded spans. *)

val stop : unit -> unit
(** Disable tracing; recorded spans are kept for {!export}/{!write}. *)

val with_span :
  ?cat:string -> ?args:(unit -> (string * Flowsched_util.Json.t) list) -> string ->
  (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when tracing is enabled, the interval is
    recorded as a span (also when [f] raises).  [args] is only evaluated
    when tracing is enabled. *)

val drain : unit -> span list
(** Take (and clear) the calling domain's recorded spans, oldest first.
    Called by a worker domain just before it terminates; the result passes
    through [Domain.join] to the coordinating domain. *)

val absorb : span list -> unit
(** Append previously {!drain}ed spans into the calling domain's buffer
    (they share the session's time origin, so {!spans} interleaves them
    chronologically). *)

val spans : unit -> span list
(** The calling domain's recorded spans (own plus {!absorb}ed) in order of
    increasing start time. *)

val to_json : unit -> Flowsched_util.Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one ["ph": "X"]
    event per span ([tid] is the nesting depth, so nested spans stack in the
    viewer). *)

val write : string -> unit
(** Write {!to_json} to a file. *)
