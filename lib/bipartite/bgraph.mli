(** Bipartite multigraphs.

    Vertices are dense integers: left vertices in [\[0, nl)], right vertices
    in [\[0, nr)].  Parallel edges are allowed (they arise naturally when the
    same port pair carries several flows, and when pseudo-schedule rounds are
    combined over an interval).  Edges are identified by their index in the
    edge array, so algorithm outputs can always be traced back to the flow
    that created the edge. *)

type edge = { u : int; v : int }

type t = private { nl : int; nr : int; edges : edge array }

val create : nl:int -> nr:int -> (int * int) array -> t
(** [create ~nl ~nr pairs] builds a graph whose edge [i] is [pairs.(i)].
    Raises [Invalid_argument] if an endpoint is out of range. *)

val init : nl:int -> nr:int -> int -> (int -> edge) -> t
(** [init ~nl ~nr n f] builds a graph whose edge [i] is [f i], calling [f]
    on [0, 1, ..., n - 1] in order; validated as {!create}. *)

val num_edges : t -> int
val edge : t -> int -> edge

val degrees : t -> int array * int array
(** Per-vertex degrees [(left, right)] counting multiplicities. *)

val max_degree : t -> int
(** Largest degree over both sides; [0] for an edgeless graph. *)

val adj_left : t -> int list array
(** [adj_left g] maps each left vertex to the ids of its incident edges. *)

val adj_right : t -> int list array

val is_matching : t -> int list -> bool
(** Do the given edge ids touch every vertex at most once? *)

val is_b_matching : t -> cl:int array -> cr:int array -> int list -> bool
(** Degree of each left vertex [u] at most [cl.(u)] and each right vertex [v]
    at most [cr.(v)] in the sub-multigraph induced by the ids. *)
