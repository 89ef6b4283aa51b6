(** Round-based flow-level simulator.

    The paper's "in-house simulator for online flow scheduling over a
    non-blocking switch" (§5.2.1): the engine maintains the queue of
    released-but-unscheduled flows, asks the policy for a feasible set each
    round, and records response times.  Flows run whole-in-one-round, which
    matches both the offline model and the paper's unit-size experiments.

    Two drivers are provided: {!run_instance} replays a fixed instance and
    {!run_adaptive} lets an arrival callback observe the live queue — the
    adaptive adversaries of Figure 4 need exactly that power.  Both run
    every round through {!run_slot}, as the serve loop's policy core does. *)

type result = {
  flows : Flowsched_switch.Flow.t array;  (** Everything that arrived. *)
  schedule : Flowsched_switch.Schedule.t;  (** Round each flow ran in. *)
  responses : int array;  (** Per-flow response times. *)
  makespan : int;
  rounds_idle : int;  (** Rounds where the policy scheduled nothing while flows were pending. *)
}

exception Policy_violation of string
(** Raised when a policy returns an out-of-range or repeated index, or a
    selection that overflows a port capacity or, under [endpoint], a node
    capacity. *)

exception Horizon_exceeded of { round : int; pending : int }
(** Raised when the run reaches [max_rounds] with flows still queued or
    still to arrive: the policy is starving flows or arrivals outpace
    capacity.  Carries the round reached and the queue depth at that point
    so drivers can report how far the run got instead of a bare failure. *)

val run_slot :
  ?endpoint:Flowsched_switch.Endpoint.t ->
  m:int -> m':int -> cap_in:int array -> cap_out:int array -> round:int ->
  Flowsched_online.Policy.t -> Flowsched_online.Policy.Pending.t ->
  Flowsched_switch.Flow.t list
(** One slot of a policy, shared by this module's drivers and
    [Flowsched_serve.Server.run]'s [Policy] core: show the policy the
    pending queue, check its selection (indices in range and distinct,
    port capacities, and node capacities under [endpoint]), and remove the
    selected flows from the queue.  Returns them in selection order.
    Raises {!Policy_violation} on a bad selection.  With tracing on, the
    policy's select runs in one [policy.select] span whose args are
    ["policy"] (its name), ["queue"] (the queue length) and ["selected"]
    (the number of flows it selected); with tracing off the span costs one
    flag load. *)

val run_instance :
  ?endpoint:Flowsched_switch.Endpoint.t -> ?max_rounds:int ->
  Flowsched_online.Policy.t -> Flowsched_switch.Instance.t -> result
(** Replays the instance's flows at their release times and runs until the
    queue drains.  The result's flow array is the instance's.  Raises
    {!Horizon_exceeded} if flows are still queued or unreleased at
    [max_rounds] (default 100000).  With [endpoint], every selection is
    also checked against the node capacities — the scenario matrix uses
    this to certify its capacity-aware policy wrappers. *)

val average_response : result -> float
val max_response : result -> int

val run_adaptive :
  ?max_rounds:int ->
  m:int -> m':int ->
  ?cap_in:int array -> ?cap_out:int array ->
  arrivals:(round:int -> pending:Flowsched_switch.Flow.t list -> (int * int * int) list) ->
  stop_arrivals_after:int ->
  Flowsched_online.Policy.t -> result
(** [arrivals ~round ~pending] returns [(src, dst, demand)] specs released
    this round; it sees the current queue, so it can be adversarial.  Each
    spec is checked by [Flowsched_switch.Instance.check_flow], which raises
    [Invalid_argument] on an endpoint off the switch or a demand outside
    [\[1, min cap_in.(src) cap_out.(dst)\]].  After
    [stop_arrivals_after] rounds the callback is no longer consulted and the
    engine runs until the queue drains (or [max_rounds], default 100000,
    then it raises {!Horizon_exceeded}). *)
