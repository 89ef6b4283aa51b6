(** Reduction from b-matchings to matchings by port replication.

    Theorem 1's general-capacity case replicates each port [p] into [c_p]
    copies and spreads the incident edges round-robin over the copies; a
    matching in the expanded graph is a b-matching in the original.  The
    expansion keeps edge indices aligned: edge [i] of the expanded graph
    corresponds to edge [i] of the input. *)

type t = {
  graph : Bgraph.t;  (** Expanded unit-capacity graph. *)
  left_copy : int array;  (** Copy index assigned to each edge's left end. *)
  right_copy : int array;
}

val expand : Bgraph.t -> cl:int array -> cr:int array -> t
(** Capacities must be >= 1 for every vertex incident to an edge. *)

(** {2 The expansion one edge at a time}

    The copy rule {!expand} applies, exposed so a caller can expand edges
    as it produces them instead of building the input graph first: vertex
    [u] of capacity [c] becomes [max c 1] consecutive expanded vertices, and
    the [k]-th edge at [u] goes to copy [k mod c].  Feeding a graph's edges
    in index order reproduces {!expand}'s graph exactly. *)

type copies

val copies : nl:int -> nr:int -> cl:int array -> cr:int array -> copies
(** Fresh counters for vertices [\[0, nl)] and [\[0, nr)].  Raises
    [Invalid_argument] on a negative capacity, as {!expand}. *)

val copy_left : copies -> int -> int
(** [copy_left c u] is the expanded left vertex of the next edge at [u].
    Raises [Invalid_argument] if [u] has capacity 0, as {!expand}. *)

val copy_right : copies -> int -> int

val expanded_nl : copies -> int
(** Number of expanded left vertices. *)

val expanded_nr : copies -> int

val identity : copies -> bool
(** Whether every capacity on both sides is exactly 1.  Then each vertex
    is its own copy: [copy_left c u = u] and [copy_right c v = v] for every
    [u] and [v] in range, and the expanded sides have [nl] and [nr]
    vertices, so a caller may use the ports as they are and skip the
    counters.  The caller must then reject a port out of range itself, as
    the copy calls do with [Invalid_argument]. *)

val max_copy_degree : Bgraph.t -> cl:int array -> cr:int array -> int
(** The maximum degree of the expanded graph:
    [max over vertices of ceil(degree / capacity)]. *)

(** {1 Incremental matching}

    Maximum b-matching over unit-demand flows, maintained across arrivals
    and departures instead of recomputed from scratch each slot.

    The structure runs max-flow on the {e port-pair graph}: pair [(u, v)] is
    a single edge whose capacity is the number of pending flows from [u] to
    [v], with node capacities [cap_in] / [cap_out].  Unit-demand flows on a
    pair are interchangeable, so the flow value is the maximum number of
    simultaneously schedulable flows (Theorem 1's matching formulation), and
    the pair-level flow persists across slots: when a matched flow departs,
    its unit {e rebinds} to a surviving parallel flow in O(1).  Only
    operations that can actually change the optimum (arrival on a saturated
    pair, departure of a matched flow with no parallel survivor) mark the
    structure dirty; a refresh then re-augments around the touched ports in
    O(nl * nr) per BFS search.  Steady-state per-slot cost is proportional
    to churn, independent of queue depth.

    Each pending flow is either {e bound} (it carries one matched unit) or
    free.  Every choice among parallel flows is deterministic.  An arriving
    flow binds at once when both its ports have spare capacity.  A rebind,
    and each forward pair of an augmenting path, binds the pair's oldest
    free flow; each backward pair frees the pair's most recently bound
    flow.  So for a fixed operation sequence the matched set, and its
    order, are reproducible. *)
module Incremental : sig
  type t

  type stats = {
    fast_binds : int;  (** Arrivals bound immediately (both ports had spare). *)
    rebinds : int;  (** Departing bound flows whose unit moved to a parallel flow. *)
    searches : int;  (** BFS augmentation searches run (including the failed certifying one). *)
    augments : int;  (** Searches that found an augmenting path. *)
  }

  val create : nl:int -> nr:int -> cap_in:int array -> cap_out:int array -> t
  (** Capacity arrays must have lengths [nl] and [nr]; they are copied. *)

  val add : t -> id:int -> src:int -> dst:int -> unit
  (** Register a pending unit-demand flow.  Raises [Invalid_argument] on an
      [id] that is already pending or an out-of-range port.  The id of a
      removed flow may be added again, on any pair. *)

  val remove : t -> int -> unit
  (** Withdraw a pending flow (scheduled elsewhere, cancelled, ...).  Raises
      [Invalid_argument] if the id is not pending. *)

  val cardinality : t -> int
  (** Size of a maximum b-matching over the pending flows (re-augmenting
      first if needed).  With unit capacities it equals
      [Matching.max_cardinality_size] on the {!expand}ed per-flow graph —
      the exactness gate tests assert this.  Above capacity 1 it can be
      larger: {!expand} fixes each edge's copy up front.  With [cap_in =
      [|2; 1; 1|]], [cap_out] all 1 and flows (0,0), (0,1), (0,2), (0,3),
      (1,1), (2,3), it is 4 and the expansion's maximum matching is 3. *)

  val matched : t -> int list
  (** Ids of the flows forming a maximum b-matching, grouped by (src, dst)
      pair in increasing order of [src * nr + dst], and within a pair the
      most recently bound flow first.  Re-augments first if needed.  The
      tests pin this order; the serve goldens pin which flows are bound,
      through the choices above. *)

  val take_matched : t -> int list
  (** {!matched}, then {!remove} each returned flow — the per-slot schedule
      step: the matched flows transmit and depart, and their matched units
      rebind to surviving parallel flows as the warm start for the next
      slot. *)

  val pending : t -> int
  (** Number of pending flows. *)

  val mem : t -> int -> bool
  val stats : t -> stats
end

val incremental : nl:int -> nr:int -> cap_in:int array -> cap_out:int array -> Incremental.t
(** Alias for {!Incremental.create}. *)
