(* The numeric thresholds of the LP engine, in one place.  [Simplex] and
   [Sparse_lu] read them from here; every value is part of the pivot path,
   so changing one moves pivots (and the goldens that record them). *)

(* Smallest |w_i| the ratio test treats as a pivot candidate, and the step
   length below which a pivot counts as degenerate. *)
let eps_pivot = 1e-9

(* A nonbasic column enters only if its reduced cost improves the
   objective by more than this. *)
let eps_cost = 1e-7

(* Primal feasibility slack: basic values in (-eps_feas, 0) snap to 0, and
   a warm basis is feasible if no value is further out than this. *)
let eps_feas = 1e-8

(* A pivot element this small through a live eta file may be accumulated
   roundoff: the ratio test refactorizes and retries rather than commit it,
   and a committed one forces a refactorization right after the pivot. *)
let suspicious_pivot = 1e-6

(* Entries of the pivot row of B^-1 below this are skipped by the devex
   weight update: they change no weight at working precision. *)
let devex_rho = 1e-12

(* Phase 1 is skipped when the artificials already sum to at most this. *)
let art_skip = 1e-9

(* A phase-1 optimum whose artificials sum to more than this means the LP
   is infeasible. *)
let art_infeasible = 1e-6

(* Smallest |w_i| accepted when pivoting a column into a row to evict its
   artificial after phase 1, or to install a warm basis by greedy crash. *)
let crash_pivot = 1e-7

(* Sparse LU: a column whose largest candidate pivot is below this is
   treated as singular. *)
let singular = 1e-11

(* Sparse LU threshold partial pivoting: rows within this factor of the
   column maximum are eligible, and sparsity picks among them. *)
let lu_threshold = 0.1

(* A reported LP (1)-(4) optimum must agree with its Lagrangian dual bound
   D(u), at the multipliers u = max(0, -y) read off its own capacity-row
   duals y, to within this relative to max(1, |optimum|); a larger gap fails
   the solve. *)
let dual_gap = 1e-9
