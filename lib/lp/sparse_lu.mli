(** Sparse LU factorization of a basis matrix, for the revised simplex.

    [factorize] runs a left-looking Gilbert–Peierls elimination over the
    columns of an [m x m] matrix given column-wise in sparse form.  Columns
    are processed in ascending-fill order (fewest nonzeros first, equal
    lengths in slot order) as a static Markowitz ordering, and within each
    eliminated column the pivot row is chosen by threshold partial
    pivoting: among the rows whose magnitude is within a fixed factor of
    the column maximum, the row with the fewest nonzeros in the original
    matrix wins (ties to the larger magnitude).  The factors are stored
    column-wise in pivot coordinates, so both triangular solves and their
    transposes run in O(m + nnz(L) + nnz(U)) with no row-wise copies.

    The matrix indexes rows by their original ids and columns by "slots"
    [0 .. m-1] (in the simplex, the basis position).  [solve]/[solve_t]
    carry the two permutations chosen during elimination internally:
    callers pass and receive vectors in original row/slot coordinates.

    A [t] owns all of its storage and reuses it: after the entry arrays
    have grown to the largest factorization seen, [factorize], [solve] and
    [solve_t] allocate nothing.  It holds two sets of factors, so a
    factorization that fails leaves the previous one in place.  A [t] is
    not shared: use one per solve (and per domain). *)

type t

exception Singular
(** Raised by {!factorize} when some column has no usable pivot (magnitude
    below {!Tol.singular}), i.e. the matrix is singular or numerically
    so. *)

val create : int -> t
(** [create m] is storage for factoring [m x m] matrices.  Until the first
    successful {!factorize} it holds the identity.  Raises
    [Invalid_argument] if [m < 0]. *)

val factorize :
  t -> col_ptr:int array -> row_ind:int array -> values:float array -> basis:int array -> unit
(** [factorize t ~col_ptr ~row_ind ~values ~basis] factors the [m x m]
    matrix whose slot [s] column is column [basis.(s)] of the compressed
    sparse column matrix [col_ptr]/[row_ind]/[values] (column [j]'s entries
    at indices [col_ptr.(j) .. col_ptr.(j+1) - 1], each row id in
    [\[0, m)] at most once).  On success the new factors replace the ones
    {!solve} and {!solve_t} use.  Raises {!Singular} as above, and
    [Invalid_argument] on an out-of-range row index or a [basis] whose
    length is not [m]; either way the previous factors stay in use. *)

val nnz : t -> int
(** Total stored nonzeros of L and U (including the unit/diagonal terms). *)

val solve : t -> float array -> float array -> unit
(** [solve t b w] overwrites [w] (length [m], fully written) with the
    solution of [B w' = b], where [b] is a dense vector indexed by original
    row and [w'] reads [w] by slot: [w.(s)] is the multiplier of column
    [s].  [b] is left unchanged.  Not reentrant: uses scratch owned by
    [t]. *)

val solve_t : t -> float array -> float array -> unit
(** [solve_t t c y] overwrites [y] (length [m], fully written) with the
    solution of [B^T y' = c], where [c] is indexed by slot and [y] by
    original row — the btran of the revised simplex.  [c] is left
    unchanged.  Not reentrant: uses scratch owned by [t]. *)
