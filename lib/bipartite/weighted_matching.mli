(** Maximum-weight bipartite matching.

    Dense Hungarian algorithm (potentials formulation, O(n³)) on the active
    vertices.  Vertices may stay unmatched, so the result maximizes total
    weight rather than cardinality; edges of negative weight are never used.
    Among maximum-weight matchings the algorithm may include zero-weight
    edges, which is what the online heuristics want (work conservation is
    then controlled by the caller through its weight function). *)

val max_weight : Bgraph.t -> float array -> int list
(** [max_weight g w] returns edge ids of a matching maximizing
    [sum of w.(e)].  [w] must have an entry per edge.  Raises
    [Invalid_argument] if a weight is infinite or [nan].

    The result is a function of the edge order, not only of the graph: the
    left and right vertices incident to an edge are numbered in order of
    first appearance, each vertex pair keeps its heaviest edge (the first
    one on ties), and the ids come out by decreasing number of their right
    vertex.  The heuristics' schedules depend on this order. *)

(** {2 Building a problem edge by edge}

    [max_weight g w] is [problem], then [add_edge] on each edge of [g] in
    index order, then [solve].  Callers that produce edges one at a time
    (the online heuristics expand each pending flow as they read it) use
    these directly and build no graph.  The buffers belong to the calling
    domain and are reused across problems, so at most one problem per
    domain is live: [problem] discards the previous one. *)

type problem

val problem : nl:int -> nr:int -> edges:int -> problem
(** An empty problem on left vertices [\[0, nl)] and right vertices
    [\[0, nr)] with room for [edges] edges. *)

val add_edge : problem -> int -> int -> float -> unit
(** [add_edge p u v w] adds the next edge, whose id is the number of edges
    added before it.  Raises [Invalid_argument] on an endpoint out of
    range, an edge beyond the declared count, or a non-finite weight. *)

val solve : problem -> int list
(** The edge ids {!max_weight} returns for the same edges. *)

val weight_of : float array -> int list -> float
(** Total weight of an edge id list. *)
