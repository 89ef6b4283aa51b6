(** Long-running scheduler service: a slot-clocked event loop around a
    scheduling core, built to run for millions of slots under bounded
    memory.

    Each slot the server (1) pulls at most one source slot's arrivals into
    a bounded buffer — a full buffer stalls the source (backpressure) —
    (2) admits buffered flows into the scheduling core while the pending
    queue is under its cap, (3) asks the core for this slot's schedulable
    set, and (4) folds the completed flows into streaming response-time
    statistics and discards them.  Nothing grows with the horizon: state is
    the pending flows plus integer accumulators.

    Two cores are provided.  {!Policy} runs every slot through
    [Flowsched_sim.Engine.run_slot], the batch engine's own slot, so for a
    fixed-seed trace with backpressure disabled the outcome's aggregate
    statistics equal those of [Flowsched_sim.Engine.run_instance] on the
    same trace (the tests assert this for 1e5-slot runs).  {!Incremental}
    maintains the matching across slots with
    [Flowsched_bipartite.Bmatching.Incremental], making the per-slot
    decision cost proportional to churn rather than queue depth; it
    requires unit demands.

    The {!outcome} is all-integer, so for a fixed seed two runs are
    byte-identical even though the status stream carries measured rates.
    Timing appears only in {!status} snapshots and the metrics registry
    ([serve.slot_decision_seconds]); both read the monotonic clock of
    [Flowsched_obs.Trace.now_us], so no sample is negative. *)

type core =
  | Policy of Flowsched_online.Policy.t
      (** Raises [Flowsched_sim.Engine.Policy_violation] on a selection the
          batch engine would reject. *)
  | Incremental  (** Unit demands only; raises [Invalid_argument] otherwise. *)

type config = private {
  m : int;
  m' : int;
  cap_in : int array;
  cap_out : int array;
  queue_cap : int;  (** Max flows in the scheduling core; admission waits above. *)
  buffer_cap : int;  (** Max flows in the arrival buffer; the source stalls above. *)
  max_slots : int option;  (** Hard stop; [final_pending] reports what was left. *)
  idle_limit : int;
      (** Stop after this many consecutive fruitless slots once the source
          is exhausted — a starving core would otherwise spin forever. *)
  status_every : int;  (** Emit a status snapshot every N slots; 0 = never. *)
}

val config :
  ?cap_in:int array ->
  ?cap_out:int array ->
  ?queue_cap:int ->
  ?buffer_cap:int ->
  ?max_slots:int ->
  ?idle_limit:int ->
  ?status_every:int ->
  m:int ->
  m':int ->
  unit ->
  config
(** Capacities default to all ones; [queue_cap] and [buffer_cap] default to
    unbounded ([max_int], i.e. backpressure off); [idle_limit] defaults to
    10000.  Raises [Invalid_argument] on non-positive geometry,
    capacities or caps. *)

type status = {
  slot : int;
  pending : int;
  buffered : int;
  arrived : int;
  completed : int;
  flows_per_sec : float;  (** Completions per second since the last snapshot. *)
  p50_latency : float;  (** Slot-decision latency quantile estimates, seconds, *)
  p99_latency : float;  (** from the metrics registry's log-scale histogram. *)
}

type outcome = {
  slots : int;
  arrived : int;
  completed : int;
  sum_response : int;
  max_response : int;
  makespan : int;  (** Last slot (1-based) in which anything was scheduled. *)
  idle_slots : int;  (** Slots with pending flows but nothing scheduled. *)
  stalled_slots : int;  (** Slots the source spent blocked on a full buffer. *)
  peak_pending : int;
  final_pending : int;  (** 0 unless the run was cut short. *)
  final_buffered : int;
  interrupted : bool;
}

val run : ?on_status:(status -> unit) -> ?stop:bool ref -> config -> core -> Source.t -> outcome
(** Run until the source is exhausted and the queues drain, [max_slots] is
    reached, or [stop] becomes true (e.g. the {!Flowsched_exec.Signals}
    interrupt flag): setting [stop] closes the source and the server drains
    what it already holds before returning.

    Raises [Invalid_argument] when it admits an arrival that
    [Flowsched_switch.Instance.check_flow] rejects: an endpoint outside the
    switch, or a demand outside [\[1, min cap_in.(src) cap_out.(dst)\]]. *)

val mean_response : outcome -> float
(** [nan] when nothing completed. *)

val outcome_to_json : outcome -> Flowsched_util.Json.t
val status_to_json : status -> Flowsched_util.Json.t
