(** Fork-based parallel experiment runner, and the program's only
    executor: every cell grid ([sweep], [matrix], [figures], [bench]) runs
    on it, inline at [jobs = 1] and forked above.

    A worker pool for embarrassingly parallel grids of experiment cells:
    jobs are dispatched to [Unix.fork]ed workers over pipes using
    length-prefixed, CRC-checksummed [Marshal] frames, and results are
    merged back {e in job order}, so parallel output is deterministic —
    byte-identical to a sequential [~jobs:1] run whenever the job function
    itself is deterministic.

    Fault tolerance: a worker that raises, exits, is killed mid-job, or
    returns a frame that fails its CRC-32 check does not lose the job — it
    is retried (in a fresh worker for crashes and corrupt frames) up to a
    bounded retry budget, after which the job is reported as {!Failed}.  A
    job exceeding its [timeout] has its worker SIGKILLed and is treated the
    same way.  The pool always [waitpid]s every child it forked, so no run
    leaves zombies behind.

    Graceful shutdown: while [map] runs, SIGINT/SIGTERM are redirected to a
    flag; the dispatch loop notices it at the next step, drains and reaps
    every child, restores the previous signal behaviours, and raises
    {!Interrupted}.  Jobs already completed have been reported through
    [on_result] (the checkpoint hook), so an interrupted sweep loses at
    most the in-flight attempts.

    Chaos testing: a {!Faults.plan} injects deterministic, seeded faults
    (worker crash, hang, transient raise, corrupt result frame) keyed by
    [(job, attempt)] — see {!Faults}.  Because the injection schedule is
    independent of scheduling, a chaos run with enough [retries] budget
    converges to the exact fault-free output.

    Determinism support: before each attempt the worker reseeds the stdlib
    [Random] state with a value derived only from the job index, so job
    code that consults the global PRNG behaves the same
    no matter which worker runs it or in what order.  Code using explicit
    {!Flowsched_util.Prng} states seeded from the job payload is naturally
    deterministic already.

    Wire protocol (see DESIGN.md): each frame is an 8-byte header — 4-byte
    big-endian payload length, then the payload's CRC-32 ({!Flowsched_util.Crc})
    — followed by [Marshal] bytes (with [Marshal.Closures], which is safe
    between a parent and its forked children since they share the code
    image).  A frame whose payload fails the checksum is rejected {e before}
    unmarshalling and handled as a worker crash ([pool.frames_corrupt]
    counts them).  Parent->worker frames carry
    [(job, attempt, seed, fault, payload)] or a quit token; worker->parent
    frames carry [(job, result, metrics)] where [metrics] is the
    {!Flowsched_obs.Metrics} registry diff accumulated by that attempt
    (sent on success {e and} on a returned failure).

    Observability: the parent {!Flowsched_obs.Metrics.absorb}s each frame's
    diff, so after [map] the parent registry holds the same "simplex.*",
    "engine.*", ... totals as an inline [~jobs:1] run — counters merge
    deterministically because integer addition commutes.  Attempts that die
    without returning a frame (crash, timeout) lose their metrics, mirroring
    inline mode where such attempts cannot occur.  The pool itself counts
    under "pool.*" ([jobs_done], [jobs_failed], [retries],
    [workers_spawned], [worker_deaths], [frames_corrupt], and the
    [job_seconds] histogram); fault injections count under "faults.injected_*".  These
    are parent-side and legitimately differ between [--jobs] settings.
    Span tracing ({!Flowsched_obs.Trace}) is disabled in workers right after
    fork; only the parent's spans (e.g. ["pool.map"]) survive. *)

type 'b outcome =
  | Done of 'b
  | Failed of { attempts : int; reason : string }
      (** The job failed [attempts] times (exactly [retries + 1] total
          attempts); [reason] is the last failure (exception text,
          ["worker crashed"], ["timed out"], or ["... corrupt ..."]). *)

type event =
  | Job_started of { job : int; attempt : int }
  | Job_done of { job : int; attempt : int; elapsed : float }
  | Job_retried of { job : int; attempt : int; reason : string }
  | Job_failed of { job : int; attempts : int; reason : string }
      (** Events are delivered in the parent process, from the dispatch
          loop; in parallel runs their interleaving across jobs follows
          completion order, not job order.  Per job the sequence is always
          [Job_started 1; (Job_retried k; Job_started k+1)*; (Job_done |
          Job_failed)]. *)

exception Interrupted
(** Raised by {!map} after a SIGINT/SIGTERM: all children have been
    drained and reaped, signal handlers restored, and every completed job
    already reported through [on_result]. *)

val default_jobs : unit -> int
(** Detected core count ([Domain.recommended_domain_count]), at least 1. *)

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Faults.plan ->
  ?progress:(event -> unit) ->
  ?on_result:(int -> 'b outcome -> unit) ->
  f:('a -> 'b) ->
  'a array ->
  'b outcome array
(** [map ~f inputs] applies [f] to every element of [inputs] and returns
    the outcomes in input order.

    - [jobs] (default {!default_jobs}): worker processes.  [jobs <= 1] runs
      everything inline in the calling process with the same retry
      semantics.
    - [timeout]: per-attempt wall-clock budget in seconds; on expiry the
      worker is SIGKILLed and the attempt counts as failed.  Inline,
      nothing can interrupt a running [f], but an attempt that finishes
      over budget is discarded and counted as ["timed out"] all the same.
    - [retries] (default 1): additional attempts after the first failure;
      a job is reported {!Failed} after exactly [retries + 1] failed
      attempts.
    - [faults]: a deterministic chaos plan; see {!Faults}.
    - [progress]: called in the parent for every lifecycle event.
    - [on_result]: called in the parent exactly once per job, with its
      final outcome, {e as soon as the job settles} (completion order, not
      job order) — the hook checkpointing layers use to persist results
      before the full map returns.

    [f] must only raise, return, or never terminate; results and inputs
    must be marshalable (closures in the payload are tolerated thanks to
    fork's shared code image, but plain data is preferred). *)

val seed_for : int -> int
(** [seed_for job]: the value fed to [Random.init] before every attempt of
    [job], a pure function of [job] only — never of the attempt, the
    worker, or scheduling order.  This is the per-job PRNG splitting
    contract (see {!Flowsched_util.Prng} for the stream-level guarantee):
    distinct jobs get distinct seeds, so their derived streams are disjoint
    in practice. *)
