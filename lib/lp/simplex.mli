(** Two-phase sparse revised simplex over {!Model}, with warm starts and
    bounded variables.

    The constraint matrix is held in compressed sparse column form (built
    once per solve) and the basis is represented by a sparse LU
    factorization ({!Sparse_lu}: Gilbert–Peierls elimination with threshold
    partial pivoting and a static Markowitz column order) plus a
    product-form eta file appended on each pivot; the file is folded back
    into a fresh factorization when it grows too long, accumulates too much
    fill relative to the factors, or after an ill-conditioned pivot.  Both
    ftran and btran therefore run in time proportional to the nonzeros
    involved rather than [rows^2].

    The solver falls back to Bland's rule after long degenerate streaks so
    it cannot cycle.  Pricing is partial with devex reference weights: a
    rotating candidate window is scanned per pivot, the best eligible column
    by [d^2 / weight] wins, and a full scan (against freshly computed duals)
    only confirms optimality.

    Variables may carry a declared upper bound ({!Model.add_var}'s [?ub]):
    such a column can sit nonbasic at either bound, the ratio test is
    two-sided, and a pivot limited by the entering column's own bound
    degenerates to a bound flip with no basis change.  Optimal results are
    vertex (basic feasible) solutions: at most [num_rows] variables take
    values strictly between their bounds, which is exactly the property the
    iterative-rounding procedures of the paper need from the LP oracle.

    Warm starts: [solve ~warm] takes a basis description from a previous,
    related solve ([result.basis]), crash-installs it onto the fresh
    tableau, validates it by refactorization, and skips phase 1 entirely
    when the installed basis is already primal feasible.  A singular or
    infeasible warm basis silently falls back to the cold all-slack start,
    so a warm solve is always correct — at worst it is not faster. *)

type status = Optimal | Infeasible | Unbounded

type basis_entry = Basic_var of int | Basic_slack of int | Nonbasic_upper of int
(** One entry of a model-level basis description: a basic structural
    variable (by {!Model.var} id), the basic slack/surplus of a model row
    (by row id), or a nonbasic structural variable parked at its declared
    upper bound.  Rows not covered by the basic entries keep their default
    slack/artificial; variables not named by a [Nonbasic_upper] entry start
    at their lower bound. *)

type basis = basis_entry array

type result = {
  status : status;
  objective : float;  (** Meaningful only when [status = Optimal]. *)
  values : float array;  (** Structural variable values, length [num_vars]. *)
  duals : float array;  (** One dual per model row, phase-2 prices. *)
  iterations : int;
  basis : basis;
      (** Final optimal basis, for warm-starting a related solve; [[||]]
          unless [status = Optimal]. *)
}

type counters = {
  mutable solves : int;
  mutable pivots : int;  (** Simplex iterations across all solves. *)
  mutable ftran_calls : int;
  mutable refactorizations : int;
  mutable full_pricing_scans : int;
  mutable partial_pricing_rounds : int;
  mutable warm_attempts : int;
  mutable warm_accepted : int;  (** Warm bases installed and primal feasible. *)
  mutable phase1_skipped : int;
  mutable basis_nnz : int;
      (** Nonzeros of the basis matrices factorized, summed over
          refactorizations; [factor_nnz /. basis_nnz] is the mean fill-in
          ratio of the sparse LU. *)
  mutable factor_nnz : int;
      (** Nonzeros of the L and U factors produced, summed over
          refactorizations. *)
  mutable eta_nnz : int;
      (** Nonzeros appended to product-form eta files, summed over pivots. *)
  mutable bound_flips : int;
      (** Ratio tests resolved by flipping the entering column to its other
          bound (no basis change; not counted in [pivots]). *)
  mutable phase1_seconds : float;
      (** Wall time in phase 1, on the clock of the domain that ran the
          solve ({!Flowsched_obs.Trace.now_us}); solves running at once on
          other domains do not add to it. *)
  mutable phase2_seconds : float;  (** Likewise for phase 2. *)
}
(** Cumulative solver statistics since the last {!reset_counters}.

    {b Deprecated interface}: the authoritative store is now the
    process-wide {!Flowsched_obs.Metrics} registry, under the
    ["simplex.*"] names ([simplex.solves], [simplex.pivots],
    [simplex.ftran_calls], ...); this record is a shim read off those
    handles and kept for existing callers.  New code should read the
    registry — unlike this record, registry snapshots merge across the
    worker-pool fork boundary.  Prefer bracketing a section with
    {!read_counters} and {!diff_counters} over calling {!reset_counters},
    which zeroes the shared registry for every other reader in the
    process. *)

val read_counters : unit -> counters
(** Snapshot (a copy; safe to retain) of the registry-backed counters. *)

val reset_counters : unit -> unit
(** Zero the ["simplex.*"] registry metrics (and hence this record).
    Deprecated for new code — see {!type:counters}. *)

val diff_counters : counters -> counters -> counters
(** [diff_counters after before]: field-wise subtraction, for per-section
    accounting without resetting the shared registry. *)

exception Iteration_limit of int
(** Raised if the pivot count exceeds the caller's budget — indicates a bug
    or a degenerate pathological instance, not a normal outcome. *)

val solve : ?max_iters:int -> ?warm:basis_entry list -> Model.t -> result
(** [solve model] minimizes the model objective.  [max_iters] defaults to
    [200 * (rows + vars) + 5000].  [warm] seeds the starting basis from a
    previous related solve; invalid entries are ignored and an unusable
    basis falls back to a cold start. *)

val solve_or_fail : ?max_iters:int -> ?warm:basis_entry list -> Model.t -> result
(** Like {!solve} but raises [Failure] on [Infeasible]/[Unbounded]; handy
    where feasibility is known by construction. *)
