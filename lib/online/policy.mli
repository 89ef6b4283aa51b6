(** Online scheduling policies.

    The simulator drives a policy round by round: it shows the pending flows
    (released, not yet scheduled) and the switch geometry, and the policy
    picks a capacity-feasible subset to run this round.  Policies may be
    stateful (e.g. {!Amrt}) — [select] is a closure.

    This is exactly the paper's Section 5.2 setup: "Our simulator maintains
    a bipartite graph G_t [...]; any heuristic can be plugged in to extract
    a bipartite matching M_t ⊆ E(G_t)". *)

type context = {
  m : int;
  m' : int;
  cap_in : int array;  (** Capacities the selection must respect. *)
  cap_out : int array;
  round : int;
  queue : Flowsched_switch.Flow.t array;
      (** Pending flows; [release <= round] for each. *)
}

type t = {
  name : string;
  select : context -> int list;
      (** Indices into [queue]; total demand per port must stay within the
          context capacities (the engine validates). *)
}

(** The pending flows of a slot loop, kept for [context.queue]: both
    [Engine.run_instance] and [Server.run]'s policy core drive a policy
    through one of these.  Flows are appended as they arrive; a selection
    removes the flows at its indices.  The queue array is built once per
    slot that changed it and reused as is across slots that did not;
    replaced arrays are handed to the major GC in slices. *)
module Pending : sig
  type t

  val create : unit -> t

  val length : t -> int
  (** Flows pending now, including those pushed or removed since the last
      {!queue}. *)

  val push : t -> Flowsched_switch.Flow.t -> unit
  (** Append an arrival; it goes behind every flow pending before it. *)

  val queue : t -> Flowsched_switch.Flow.t array
  (** The pending flows, oldest first, as an array of exactly {!length}
      flows — the same array as last time when nothing was pushed or
      removed since.  Do not mutate it. *)

  val remove : t -> int list -> unit
  (** [remove t ids] drops the flows at indices [ids] of the last {!queue}.
      Raises [Invalid_argument] on an index out of range or removed
      twice. *)

  val to_list : t -> Flowsched_switch.Flow.t list
  (** The pending flows oldest first, without building the queue array. *)
end

val queue_graph : context -> Flowsched_bipartite.Bgraph.t
(** The pending flows as a bipartite multigraph (edge [i] = [queue.(i)]). *)

val feasible_selection : context -> int list -> bool
(** Capacity check for a proposed selection. *)

val greedy_pack :
  context -> (Flowsched_switch.Flow.t -> Flowsched_switch.Flow.t -> int) -> int list
(** Sort the queue with the comparator and admit flows greedily while both
    ports have residual capacity — shared by FIFO-style policies. *)
