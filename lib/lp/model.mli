(** Linear-program construction.

    A model is a minimization problem over non-negative variables

    {v  minimize  c'x   subject to   a_i'x  (<= | >= | =)  b_i,   x >= 0  v}

    built incrementally: declare variables with objective coefficients, then
    add constraint rows as sparse term lists.  The model is solved by
    {!Simplex.solve}, which always returns a vertex (basic) solution — a
    property both rounding procedures in flowsched_core rely on. *)

type t

type var = int
(** Variable handle: a dense index in [\[0, num_vars)]. *)

type row = int
(** Constraint handle: a dense index in [\[0, num_rows)]. *)

type sense = Le | Ge | Eq

val create : unit -> t

val add_var : ?obj:float -> ?ub:float -> t -> var
(** Declares a non-negative variable with objective coefficient [obj]
    (default [0.]) and declared upper bound [ub] (default [infinity], i.e.
    unbounded above).  A finite bound is enforced by the simplex engine's
    bounded-variable ratio test rather than an explicit [x <= ub] row, so it
    adds no row to the model.  Raises [Invalid_argument] on a negative or
    NaN bound. *)

val add_constraint : t -> (var * float) list -> sense -> float -> row
(** [add_constraint t terms sense rhs] adds the row [terms sense rhs].
    Duplicate variables in [terms] are summed.  Raises [Invalid_argument] on
    an out-of-range variable. *)

val num_vars : t -> int
val num_rows : t -> int
val objective_coeff : t -> var -> float

val var_upper : t -> var -> float
(** Declared upper bound; [infinity] when the variable is unbounded. *)

val row_terms : t -> row -> (var * float) list
val row_sense : t -> row -> sense
val row_rhs : t -> row -> float

val row_activity : t -> float array -> row -> float
(** [row_activity t x r] is [a_r' x] for a full assignment [x]. *)

val is_feasible : ?tol:float -> t -> float array -> bool
(** Checks all rows, non-negativity and declared upper bounds within
    tolerance [tol] (default [1e-6]). *)

type csc = { col_ptr : int array; row_ind : int array; values : float array }
(** Compressed sparse column form of the structural constraint matrix:
    column [v]'s entries live at indices [col_ptr.(v) .. col_ptr.(v+1) - 1]
    of [row_ind]/[values], in increasing row order. *)

val to_csc : t -> csc
(** One-pass CSC snapshot of the current rows.  Duplicate terms were already
    merged by {!add_constraint}, so each (row, column) pair appears once. *)
