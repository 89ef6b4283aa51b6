(** Span tracing with Chrome trace-event output.

    Disabled by default: {!with_span} then costs one boolean load before
    tail-calling the wrapped function, so instrumentation can stay in place
    permanently.  When enabled via {!start}, each span records a name,
    nesting depth, and wall-clock interval; {!write} emits the buffer as
    Chrome [chrome://tracing] / Perfetto trace-event JSON (complete ["X"]
    events with microsecond timestamps).

    Timestamps come from the monotonic clock of
    [bechamel.monotonic_clock] (nanoseconds), so span durations are never
    negative even when the wall clock steps back.

    Domain-safety: the enable flag and time origin are process-global
    (atomics), while the span buffer and nesting depth are
    domain-local — each domain records into its own buffer without
    contention, and {!spans} and {!write} cover the calling domain's.
    {!Flowsched_exec.Pool} workers disable tracing after [fork] — only
    metrics travel back across the result frames. *)

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
(** The clock spans use: monotonic time in microseconds, with nanosecond
    resolution, from an arbitrary origin; only differences mean anything.
    Readable whether or not tracing is enabled. *)

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

val spans : unit -> span list
(** The calling domain's recorded spans in order of increasing start
    time. *)

val to_json : unit -> Flowsched_util.Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one ["ph": "X"]
    event per span ([tid] is the nesting depth, so nested spans stack in the
    viewer). *)

val write : string -> unit
(** Write {!to_json} to a file. *)
