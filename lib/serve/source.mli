(** Arrival sources for the scheduler service.

    A source is a slot-clocked supplier of flow specs: the server pulls the
    batch released at each source slot exactly once, in increasing slot
    order.  Under backpressure the server's own slot clock can run ahead of
    the source's — a batch the buffer had no room for is pulled later, and
    its flows are released (for response-time accounting) at the slot they
    were actually admitted. *)

type t

val make : more:(int -> bool) -> pull:(int -> (int * int * int) list) -> t
(** [more slot] says whether the source can still produce at or after
    [slot]; [pull slot] returns the [(src, dst, demand)] specs released at
    [slot].  [pull] is called at most once per slot, in increasing order,
    and only while [more] holds. *)

val of_instance : Flowsched_switch.Instance.t -> t
(** Replay a fixed instance: each flow is produced at its release slot, in
    the instance's flow order within a slot. *)

val of_scenario : Flowsched_sim.Scenario.spec -> horizon:int -> t
(** Pull from the seeded generator of any streamable scenario kind (the
    workload zoo included) for [horizon] source slots, then stop; the
    spec's own [rounds] is ignored in favour of [horizon].  The stream
    advances only when the server actually pulls, so backpressure pauses
    the generator rather than dropping arrivals.  Raises
    [Invalid_argument] for batch-only kinds (["uniform"]). *)

val more : t -> int -> bool
val pull : t -> int -> (int * int * int) list
