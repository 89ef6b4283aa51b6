(** Maximum-weight bipartite matching.

    Hungarian algorithm (potentials formulation) on the active vertices.
    Small problems run the dense O(n³) loop over an n x n matrix.  Once
    the declared size (the larger side, capped at the number of edges)
    reaches 15, a sparse solver takes the same decisions from the edges
    alone (DESIGN.md, "Two Hungarian solvers").
    Vertices may stay unmatched, so the result maximizes total weight
    rather than cardinality; edges of negative weight are never used.
    Among maximum-weight matchings the algorithm may include zero-weight
    edges, which is what the online heuristics want (work conservation is
    then controlled by the caller through its weight function).

    What is promised depends on the weights:
    - for all finite weights, the result is a maximum-weight matching (up
      to floating-point rounding in the sums);
    - for integer-valued weights (of magnitude below 2{^53}), which every
      caller in this repository uses, the result is also edge for edge the
      one the original dense Hungarian returns, order included, on either
      solver.  Both solvers then compute only exact integers, so they take
      the same decisions.  With fractional weights the two round
      differently and may return different maximum-weight matchings. *)

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
    these directly and build no graph.  A problem may get fewer edges than
    it declared: the declared count still sets its size, and with it the
    solver, which is how the heuristics keep the per-flow choice when they
    feed one edge per port pair.  The buffers belong to the calling
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
