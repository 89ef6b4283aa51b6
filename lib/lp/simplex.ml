type status = Optimal | Infeasible | Unbounded

type basis_entry = Basic_var of int | Basic_slack of int | Nonbasic_upper of int

type basis = basis_entry array

type result = {
  status : status;
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
  basis : basis;
}

module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

(* The solver's event counts live in the process-wide metrics registry under
   "simplex.*", so they survive the worker-pool fork boundary (workers ship
   registry diffs back in their result frames) and show up next to the rest
   of the pipeline's metrics.  A caller counts one section with
   [Metrics.diff] of two snapshots. *)
let c_solves = Metrics.counter "simplex.solves"
let c_pivots = Metrics.counter "simplex.pivots"
let c_ftran = Metrics.counter "simplex.ftran_calls"
let c_refactorizations = Metrics.counter "simplex.refactorizations"
let c_full_pricing_scans = Metrics.counter "simplex.full_pricing_scans"
let c_partial_pricing_rounds = Metrics.counter "simplex.partial_pricing_rounds"
let c_warm_attempts = Metrics.counter "simplex.warm_attempts"
let c_warm_accepted = Metrics.counter "simplex.warm_accepted"
let c_phase1_skipped = Metrics.counter "simplex.phase1_skipped"
let c_basis_nnz = Metrics.counter "simplex.basis_nnz"
let c_factor_nnz = Metrics.counter "simplex.factor_nnz"
let c_eta_nnz = Metrics.counter "simplex.eta_nnz"
let c_bound_flips = Metrics.counter "simplex.bound_flips"
let g_phase1_seconds = Metrics.gauge "simplex.phase1_seconds"
let g_phase2_seconds = Metrics.gauge "simplex.phase2_seconds"

exception Iteration_limit of int

(* The product-form eta file is capped: hitting the cap (or an eta-nnz blowup
   relative to the factor size) triggers refactorization, so the per-solve
   working set stays O(nnz). *)
let eta_cap = 64

(* Standard-form tableau shared by both phases.  The constraint matrix over
   all tableau columns (structural + slack + artificial) is held in CSC form
   for ftran/pricing and CSR form for the devex pivot-row pass; both are
   built once per solve.  The basis is represented by a sparse LU
   factorization plus a product-form eta file appended on each pivot.  The
   factor storage, the eta file and the work vectors belong to this one
   solve and are reused across its pivots; the first two grow by doubling,
   so pivots allocate nothing once they have reached their working size. *)
type tab = {
  m : int; (* rows *)
  ncols : int; (* structural + slack + artificial columns *)
  n_struct : int;
  col_ptr : int array; (* CSC: column j at col_idx/col_val[col_ptr.(j) ..) *)
  col_idx : int array;
  col_val : float array;
  row_ptr : int array; (* CSR of the same matrix, for pivot-row products *)
  row_idx : int array;
  row_val : float array;
  cost2 : float array; (* phase-2 objective per column *)
  upper : float array; (* per-column upper bound, [infinity] if none *)
  is_artificial : bool array;
  slack_of_row : int array; (* slack/surplus column of each row, -1 for Eq *)
  b : float array; (* right-hand side, >= 0 *)
  row_flip : bool array; (* true when the model row was negated *)
  basis : int array; (* column basic in each row slot *)
  basis0 : int array; (* the all-slack/artificial starting basis *)
  in_basis : bool array;
  at_upper : bool array; (* nonbasic column sitting at its upper bound *)
  xb : float array; (* basic variable values, per slot *)
  lu : Sparse_lu.t; (* factors of the basis at last refactorization *)
  mutable eta_n : int; (* product-form etas appended since then *)
  mutable eta_live_nnz : int;
  eta_slot : int array; (* per eta: the replaced basis slot r *)
  eta_piv : float array; (* per eta: w_r *)
  eta_ptr : int array; (* eta i's support at eta_idx/eta_val[eta_ptr.(i) ..) *)
  mutable eta_idx : int array; (* support slots, r excluded; grows by doubling *)
  mutable eta_val : float array;
  work_b : float array; (* scratch, row space *)
  work_c : float array; (* scratch, slot space *)
  work_w : float array; (* ftran image scratch, slot space *)
}

let factor_current_basis tab =
  Sparse_lu.factorize tab.lu ~col_ptr:tab.col_ptr ~row_ind:tab.col_idx ~values:tab.col_val
    ~basis:tab.basis

let build model =
  let m = Model.num_rows model in
  let n_struct = Model.num_vars model in
  (* Count extra columns after normalizing each row to b >= 0: one
     slack/surplus per inequality, one artificial per Ge/Eq row. *)
  let n_slack = ref 0 and n_art = ref 0 in
  let senses = Array.make m Model.Le in
  let row_flip = Array.make m false in
  let b = Array.make m 0. in
  for r = 0 to m - 1 do
    let rhs = Model.row_rhs model r in
    let sense = Model.row_sense model r in
    let sense, rhs, flip =
      if rhs < 0. then
        ( (match sense with Model.Le -> Model.Ge | Model.Ge -> Model.Le | Model.Eq -> Model.Eq),
          -.rhs,
          true )
      else (sense, rhs, false)
    in
    senses.(r) <- sense;
    row_flip.(r) <- flip;
    b.(r) <- rhs;
    (match sense with
    | Model.Le | Model.Ge -> incr n_slack
    | Model.Eq -> ());
    (match sense with Model.Ge | Model.Eq -> incr n_art | Model.Le -> ())
  done;
  let ncols = n_struct + !n_slack + !n_art in
  let csc = Model.to_csc model in
  let nnz_struct = csc.Model.col_ptr.(n_struct) in
  let nnz_total = nnz_struct + !n_slack + !n_art in
  let col_ptr = Array.make (ncols + 1) 0 in
  let col_idx = Array.make (max nnz_total 1) 0 in
  let col_val = Array.make (max nnz_total 1) 0. in
  Array.blit csc.Model.col_ptr 0 col_ptr 0 (n_struct + 1);
  Array.blit csc.Model.row_ind 0 col_idx 0 nnz_struct;
  for e = 0 to nnz_struct - 1 do
    let r = csc.Model.row_ind.(e) in
    col_val.(e) <- (if row_flip.(r) then -.csc.Model.values.(e) else csc.Model.values.(e))
  done;
  let cost2 = Array.make ncols 0. in
  let upper = Array.make ncols infinity in
  for v = 0 to n_struct - 1 do
    cost2.(v) <- Model.objective_coeff model v;
    upper.(v) <- Model.var_upper model v
  done;
  let is_artificial = Array.make ncols false in
  let slack_of_row = Array.make m (-1) in
  let basis = Array.make m (-1) in
  let next = ref n_struct and epos = ref nnz_struct in
  let push_singleton r v =
    col_ptr.(!next) <- !epos;
    col_idx.(!epos) <- r;
    col_val.(!epos) <- v;
    incr epos;
    col_ptr.(!next + 1) <- !epos
  in
  (* Slack/surplus columns; slacks of Le rows start basic. *)
  for r = 0 to m - 1 do
    match senses.(r) with
    | Model.Le ->
        push_singleton r 1.;
        slack_of_row.(r) <- !next;
        basis.(r) <- !next;
        incr next
    | Model.Ge ->
        push_singleton r (-1.);
        slack_of_row.(r) <- !next;
        incr next
    | Model.Eq -> ()
  done;
  (* Artificial columns for Ge/Eq rows start basic. *)
  for r = 0 to m - 1 do
    match senses.(r) with
    | Model.Ge | Model.Eq ->
        push_singleton r 1.;
        is_artificial.(!next) <- true;
        basis.(r) <- !next;
        incr next
    | Model.Le -> ()
  done;
  assert (!next = ncols && !epos = nnz_total);
  (* CSR transpose, for the devex pivot-row pass. *)
  let row_ptr = Array.make (m + 1) 0 in
  for e = 0 to nnz_total - 1 do
    row_ptr.(col_idx.(e) + 1) <- row_ptr.(col_idx.(e) + 1) + 1
  done;
  for r = 1 to m do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  let row_idx = Array.make (max nnz_total 1) 0 in
  let row_val = Array.make (max nnz_total 1) 0. in
  let fill = Array.sub row_ptr 0 (max m 1) in
  for j = 0 to ncols - 1 do
    for e = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let r = col_idx.(e) in
      row_idx.(fill.(r)) <- j;
      row_val.(fill.(r)) <- col_val.(e);
      fill.(r) <- fill.(r) + 1
    done
  done;
  let in_basis = Array.make ncols false in
  Array.iter (fun j -> in_basis.(j) <- true) basis;
  let tab =
    {
      m;
      ncols;
      n_struct;
      col_ptr;
      col_idx;
      col_val;
      row_ptr;
      row_idx;
      row_val;
      cost2;
      upper;
      is_artificial;
      slack_of_row;
      b;
      row_flip;
      basis;
      basis0 = Array.copy basis;
      in_basis;
      at_upper = Array.make ncols false;
      xb = Array.copy b;
      lu = Sparse_lu.create m;
      eta_n = 0;
      eta_live_nnz = 0;
      eta_slot = Array.make eta_cap 0;
      eta_piv = Array.make eta_cap 0.;
      eta_ptr = Array.make (eta_cap + 1) 0;
      eta_idx = Array.make ((4 * m) + 64) 0;
      eta_val = Array.make ((4 * m) + 64) 0.;
      work_b = Array.make (max m 1) 0.;
      work_c = Array.make (max m 1) 0.;
      work_w = Array.make (max m 1) 0.;
    }
  in
  (* The starting basis is the identity (unit slacks/artificials): its
     factorization is trivial and not counted as a refactorization. *)
  factor_current_basis tab;
  tab

(* Restore the pristine all-slack/artificial basis. *)
let reset_basis tab =
  Array.blit tab.basis0 0 tab.basis 0 tab.m;
  Array.fill tab.in_basis 0 tab.ncols false;
  Array.iter (fun j -> tab.in_basis.(j) <- true) tab.basis;
  Array.fill tab.at_upper 0 tab.ncols false;
  tab.eta_n <- 0;
  tab.eta_live_nnz <- 0;
  factor_current_basis tab;
  Array.blit tab.b 0 tab.xb 0 tab.m

(* w := B^-1 * A_j: sparse LU solve, then the eta-file inverses applied
   oldest-first.  O(m + nnz(factors) + nnz(etas)). *)
let ftran tab j w =
  Metrics.incr c_ftran;
  let m = tab.m in
  if m > 0 then begin
    let wb = tab.work_b in
    Array.fill wb 0 m 0.;
    for e = tab.col_ptr.(j) to tab.col_ptr.(j + 1) - 1 do
      wb.(tab.col_idx.(e)) <- tab.col_val.(e)
    done;
    Sparse_lu.solve tab.lu wb w;
    let ei = tab.eta_idx and ev = tab.eta_val in
    for i = 0 to tab.eta_n - 1 do
      let r = tab.eta_slot.(i) in
      let t = w.(r) /. tab.eta_piv.(i) in
      w.(r) <- t;
      if t <> 0. then
        for e = tab.eta_ptr.(i) to tab.eta_ptr.(i + 1) - 1 do
          w.(ei.(e)) <- w.(ei.(e)) -. (ev.(e) *. t)
        done
    done
  end

(* y := B^-T * c for a slot-space vector [c] (clobbered): eta transposes
   newest-first, then the LU transpose solve.  [y] is row-space. *)
let btran tab c y =
  let m = tab.m in
  if m > 0 then begin
    let ei = tab.eta_idx and ev = tab.eta_val in
    for i = tab.eta_n - 1 downto 0 do
      let r = tab.eta_slot.(i) in
      let acc = ref c.(r) in
      for e = tab.eta_ptr.(i) to tab.eta_ptr.(i + 1) - 1 do
        acc := !acc -. (ev.(e) *. c.(ei.(e)))
      done;
      c.(r) <- !acc /. tab.eta_piv.(i)
    done;
    Sparse_lu.solve_t tab.lu c y
  end

(* y := c_B^T * B^-1 for the given per-column cost vector. *)
let compute_duals tab cost y =
  if tab.m > 0 then begin
    let c = tab.work_c in
    for i = 0 to tab.m - 1 do
      c.(i) <- cost.(tab.basis.(i))
    done;
    btran tab c y
  end

(* Pricing helpers, inlined so that pricing boxes no float per candidate
   (a call that is not inlined passes and returns floats boxed). *)
let reduced_cost tab cost y j =
  let acc = ref cost.(j) in
  for e = tab.col_ptr.(j) to tab.col_ptr.(j + 1) - 1 do
    acc := !acc -. (y.(tab.col_idx.(e)) *. tab.col_val.(e))
  done;
  !acc
[@@inline]

(* Column [j] may enter the basis: it is nonbasic and, unless
   [artificials], not an artificial. *)
let allowed tab ~artificials j =
  (not tab.in_basis.(j)) && (artificials || not tab.is_artificial.(j))
[@@inline]

(* Reduced cost [d] improves the objective when column [j] moves off its
   bound. *)
let enterable tab j d = if tab.at_upper.(j) then d > Tol.eps_cost else d < -.Tol.eps_cost
[@@inline]

(* Refactorize: fresh sparse LU of the current basis, drop the eta file, and
   recompute xb from the effective right-hand side (declared bounds of
   nonbasic-at-upper columns move to the rhs). *)
let refactorize tab =
  Metrics.incr c_refactorizations;
  let bnnz = ref 0 in
  for i = 0 to tab.m - 1 do
    let j = tab.basis.(i) in
    bnnz := !bnnz + (tab.col_ptr.(j + 1) - tab.col_ptr.(j))
  done;
  Metrics.incr ~by:!bnnz c_basis_nnz;
  (match factor_current_basis tab with
  | exception Sparse_lu.Singular -> failwith "Simplex.refactorize: singular basis"
  | () -> Metrics.incr ~by:(Sparse_lu.nnz tab.lu) c_factor_nnz);
  tab.eta_n <- 0;
  tab.eta_live_nnz <- 0;
  if tab.m > 0 then begin
    let wb = tab.work_b in
    Array.blit tab.b 0 wb 0 tab.m;
    for j = 0 to tab.ncols - 1 do
      if tab.at_upper.(j) then begin
        let u = tab.upper.(j) in
        for e = tab.col_ptr.(j) to tab.col_ptr.(j + 1) - 1 do
          wb.(tab.col_idx.(e)) <- wb.(tab.col_idx.(e)) -. (u *. tab.col_val.(e))
        done
      end
    done;
    Sparse_lu.solve tab.lu wb tab.xb;
    for i = 0 to tab.m - 1 do
      if tab.xb.(i) < 0. && tab.xb.(i) > -.Tol.eps_feas then tab.xb.(i) <- 0.
    done
  end

(* Append a product-form eta for pivoting the column with ftran image [w]
   into slot [r]: B_new = B_old * E with E's column r replaced by w. *)
let append_eta tab w r =
  let m = tab.m in
  let idx = tab.eta_n in
  let start = tab.eta_ptr.(idx) in
  if start + m > Array.length tab.eta_idx then begin
    let cap = max (start + m) (2 * Array.length tab.eta_idx) in
    let ei = Array.make cap 0 and ev = Array.make cap 0. in
    Array.blit tab.eta_idx 0 ei 0 start;
    Array.blit tab.eta_val 0 ev 0 start;
    tab.eta_idx <- ei;
    tab.eta_val <- ev
  end;
  let ei = tab.eta_idx and ev = tab.eta_val in
  let k = ref start in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0. then begin
      ei.(!k) <- i;
      ev.(!k) <- w.(i);
      incr k
    end
  done;
  let n = !k - start in
  tab.eta_slot.(idx) <- r;
  tab.eta_piv.(idx) <- w.(r);
  tab.eta_ptr.(idx + 1) <- !k;
  tab.eta_n <- idx + 1;
  tab.eta_live_nnz <- tab.eta_live_nnz + n + 1;
  Metrics.incr ~by:(n + 1) c_eta_nnz

let change_basis tab r j =
  tab.in_basis.(tab.basis.(r)) <- false;
  tab.basis.(r) <- j;
  tab.in_basis.(j) <- true

let needs_refactor tab =
  tab.eta_n >= eta_cap
  || tab.eta_live_nnz > (2 * (Sparse_lu.nnz tab.lu + tab.m)) + 64

(* Install a caller-provided basis.  Two attempts:

   1. Direct install: assign the described basic columns to row slots
      (claimed slacks to their own rows, structural columns to the remaining
      slots, starting defaults elsewhere), factorize, and recompute xb with
      the nonbasic-at-upper statuses restored.  When the described basis is
      nonsingular and primal feasible — always the case for a basis taken
      from an optimal solve of the same model — this reproduces it exactly,
      so the subsequent solve skips phase 1 and confirms optimality with
      zero pivots.

   2. Greedy crash fallback, for cross-model bases (rows or columns that no
      longer exist, changed coefficients) where the direct basis comes out
      singular or infeasible: pivot the entries into the default basis by
      feasibility-preserving greedy Gaussian placement, refactorize, and
      check primal feasibility.

   Returns [true] when the tableau now holds a usable (feasible) warm basis;
   on [false] the caller must [reset_basis]. *)
let install_warm tab entries =
  let m = tab.m in
  if m = 0 || entries = [] then false
  else begin
    Metrics.incr c_warm_attempts;
    let wanted_slack = Array.make m false in
    let claimed = Array.make tab.n_struct false in
    let uppers_raw = ref [] in
    let cols =
      List.filter_map
        (function
          | Basic_var v ->
              if v >= 0 && v < tab.n_struct then begin
                claimed.(v) <- true;
                Some v
              end
              else None
          | Basic_slack r ->
              if r >= 0 && r < m && tab.slack_of_row.(r) >= 0 then begin
                wanted_slack.(r) <- true;
                Some tab.slack_of_row.(r)
              end
              else None
          | Nonbasic_upper v ->
              if v >= 0 && v < tab.n_struct && tab.upper.(v) < infinity then
                uppers_raw := v :: !uppers_raw;
              None)
        entries
    in
    let uppers = List.filter (fun v -> not claimed.(v)) !uppers_raw in
    let feasible_now () =
      let ok = ref true in
      for i = 0 to m - 1 do
        if tab.xb.(i) < -.Tol.eps_feas || tab.xb.(i) > tab.upper.(tab.basis.(i)) +. Tol.eps_feas
        then ok := false
      done;
      !ok
    in
    let direct () =
      (* Desired basis: claimed slacks on their own rows, structural columns
         on the remaining slots (which slot gets which column is irrelevant —
         a basis is a column set), defaults everywhere else. *)
      let desired = Array.make m (-1) in
      for r = 0 to m - 1 do
        if wanted_slack.(r) then desired.(r) <- tab.slack_of_row.(r)
      done;
      let free = ref [] in
      for i = m - 1 downto 0 do
        if desired.(i) < 0 then free := i :: !free
      done;
      let dup = Array.make tab.n_struct false in
      let fits = ref true in
      List.iter
        (fun j ->
          if j < tab.n_struct && not dup.(j) then begin
            dup.(j) <- true;
            match !free with
            | [] -> fits := false (* more basic entries than rows: malformed *)
            | i :: rest ->
                desired.(i) <- j;
                free := rest
          end)
        cols;
      List.iter (fun i -> desired.(i) <- tab.basis0.(i)) !free;
      if not !fits then false
      else begin
        Array.blit desired 0 tab.basis 0 m;
        Array.fill tab.in_basis 0 tab.ncols false;
        Array.iter (fun j -> tab.in_basis.(j) <- true) tab.basis;
        Array.fill tab.at_upper 0 tab.ncols false;
        List.iter (fun v -> tab.at_upper.(v) <- true) uppers;
        match refactorize tab with
        | exception Failure _ -> false (* singular: not a basis of this model *)
        | () -> feasible_now ()
      end
    in
    let crash () =
      (* Nonbasic-at-upper statuses shift the effective rhs; under the
         pristine identity basis xb is that shifted rhs directly.  If it is
         already infeasible the statuses are dropped wholesale — the crash
         below only preserves feasibility, it cannot repair it. *)
      List.iter (fun v -> tab.at_upper.(v) <- true) uppers;
      Array.blit tab.b 0 tab.xb 0 m;
      for j = 0 to tab.n_struct - 1 do
        if tab.at_upper.(j) then begin
          let u = tab.upper.(j) in
          for e = tab.col_ptr.(j) to tab.col_ptr.(j + 1) - 1 do
            tab.xb.(tab.col_idx.(e)) <- tab.xb.(tab.col_idx.(e)) -. (u *. tab.col_val.(e))
          done
        end
      done;
      let shifted_ok = ref true in
      for i = 0 to m - 1 do
        if tab.xb.(i) < -.Tol.eps_feas then shifted_ok := false
      done;
      if not !shifted_ok then begin
        Array.fill tab.at_upper 0 tab.ncols false;
        Array.blit tab.b 0 tab.xb 0 m
      end;
      let w = tab.work_w in
      let placed = ref 0 in
      (* Feasibility-preserving greedy crash: pivoting column [j] into row
         [i] rewrites the basic values through the eta matrix —
         xb'(i) = xb(i) / w(i), xb'(k) = xb(k) - w(k) * xb'(i) — so a
         candidate row is only eligible if every new value stays within its
         bounds.  The crash can therefore never break feasibility: columns
         that would are simply skipped, and the result is a partially-warm
         basis that is feasible by construction. *)
      let pivot_keeps_feasible j i =
        if abs_float w.(i) <= Tol.eps_pivot then false
        else begin
          let xi = tab.xb.(i) /. w.(i) in
          if xi < -.Tol.eps_feas || xi > tab.upper.(j) +. Tol.eps_feas then false
          else begin
            let ok = ref true in
            for k = 0 to m - 1 do
              if k <> i then begin
                let v = tab.xb.(k) -. (w.(k) *. xi) in
                if v < -.Tol.eps_feas || v > tab.upper.(tab.basis.(k)) +. Tol.eps_feas then
                  ok := false
              end
            done;
            !ok
          end
        end
      in
      List.iter
        (fun j ->
          if (not tab.in_basis.(j)) && not tab.at_upper.(j) then begin
            if tab.eta_n >= eta_cap then refactorize tab;
            ftran tab j w;
            (* Replace a default basic only: an artificial, or a row's own
               starting slack that the warm basis does not claim. *)
            let best = ref (-1) and best_v = ref Tol.crash_pivot in
            for i = 0 to m - 1 do
              let bi = tab.basis.(i) in
              let replaceable =
                tab.is_artificial.(bi)
                || (bi = tab.slack_of_row.(i) && not wanted_slack.(i))
              in
              if replaceable then begin
                let v = abs_float w.(i) in
                if v > !best_v && pivot_keeps_feasible j i then begin
                  best_v := v;
                  best := i
                end
              end
            done;
            if !best >= 0 then begin
              let r = !best in
              let xr = tab.xb.(r) /. w.(r) in
              for k = 0 to m - 1 do
                if k <> r then begin
                  let v = tab.xb.(k) -. (w.(k) *. xr) in
                  tab.xb.(k) <- (if v < 0. then 0. else v)
                end
              done;
              tab.xb.(r) <- (if xr < 0. then 0. else xr);
              append_eta tab w r;
              change_basis tab r j;
              incr placed
            end
          end)
        cols;
      if !placed = 0 then false
      else
        match refactorize tab with
        | exception Failure _ -> false
        | () -> feasible_now ()
    in
    if cols = [] && uppers = [] then false
    else begin
      let ok =
        direct ()
        ||
        (* [direct] may have left an arbitrary basis behind: restore the
           pristine starting state before crashing entries in one by one. *)
        (reset_basis tab;
         crash ())
      in
      if ok then Metrics.incr c_warm_accepted;
      ok
    end
  end

(* One simplex phase: minimize [cost] over the tableau's columns, or over
   its non-artificial columns when [artificials] is false.  Returns
   [`Optimal] or [`Unbounded].  Mutates the tableau in place.

   The dual vector y = c_B B^-1 is maintained incrementally: after a pivot
   that enters column q with reduced cost d_q on slot r, the new duals are
   y' = y + d_q * (row r of the new B^-1); the row is obtained by one unit
   btran, so the update costs O(m + nnz) like everything else here.  A full
   recomputation happens periodically to bound numerical drift.

   Pricing is partial with devex weights: a rotating cursor scans windows of
   candidate columns and pivots on the best eligible column (by d^2 / weight)
   of the first window that offers one, falling back to a full scan (against
   freshly computed duals) only to confirm optimality.  Long degenerate
   streaks switch to Bland's rule, which needs the least-index eligible
   column and therefore a full scan.

   Bounded variables: a nonbasic column at its declared upper bound enters
   downward (eligible on a positive reduced cost), the ratio test is
   two-sided — a basic variable may leave at zero or at its own bound — and
   when the entering column's bound is the tightest limit the pivot
   degenerates to a bound flip with no basis change.

   The loop allocates nothing per pivot: pricing and the ratio test run
   inline on unboxed locals, and the devex pass keeps its touched columns
   in a stamp array and an index stack allocated once per phase. *)
let run_phase tab cost ~artificials iter_budget iter_count =
  let m = tab.m in
  let y = Array.make m 0. in
  let rho = Array.make m 0. in
  let w = tab.work_w in
  let devex = Array.make tab.ncols 1. in
  let devex_max = ref 1. in
  (* The devex pass accumulates the pivot row over nonbasic columns in
     [acc]; [touched] lists the columns it reached, and [stamp.(c) = pass]
     marks c as already listed in the current pass. *)
  let acc = Array.make tab.ncols 0. in
  let stamp = Array.make tab.ncols 0 and pass = ref 0 in
  let touched = Array.make tab.ncols 0 in
  let degenerate_streak = ref 0 in
  (* Bland's rule is the anti-cycling backstop of last resort, not a working
     mode: switching to it early starves devex exactly when the LP is most
     degenerate, and least-index creep then takes hundreds of thousands of
     zero-step pivots on the larger scheduling LPs (measured 40x the total
     pivot count at 850 rows).  Engage it only after a degenerate streak no
     devex run ever produces, scaled so it still fires well inside the
     iteration budget (which is ~200x this threshold). *)
  let bland_after = max 1000 (m + tab.ncols) in
  let since_dual_refresh = ref 0 in
  let cursor = ref 0 in
  let window = max 32 (tab.ncols / 8) in
  compute_duals tab cost y;
  let finished = ref false and unbounded = ref false in
  while not !finished do
    if !iter_count > iter_budget then raise (Iteration_limit !iter_count);
    if !since_dual_refresh >= 500 then begin
      since_dual_refresh := 0;
      compute_duals tab cost y
    end;
    let bland = !degenerate_streak > bland_after in
    (* Entering column and its reduced cost (computed once, reused below). *)
    let enter = ref (-1) and d_enter = ref 0. in
    if bland then begin
      Metrics.incr c_full_pricing_scans;
      try
        for j = 0 to tab.ncols - 1 do
          if allowed tab ~artificials j then begin
            let d = reduced_cost tab cost y j in
            if enterable tab j d then begin
              enter := j;
              d_enter := d;
              raise Exit
            end
          end
        done
      with Exit -> ()
    end
    else begin
      let scanned = ref 0 in
      while !enter < 0 && !scanned < tab.ncols do
        Metrics.incr c_partial_pricing_rounds;
        let chunk = min window (tab.ncols - !scanned) in
        let best = ref 0. in
        for _ = 1 to chunk do
          let j = !cursor in
          cursor := if !cursor + 1 >= tab.ncols then 0 else !cursor + 1;
          if allowed tab ~artificials j then begin
            let d = reduced_cost tab cost y j in
            if enterable tab j d then begin
              let score = d *. d /. devex.(j) in
              if score > !best then begin
                best := score;
                enter := j;
                d_enter := d
              end
            end
          end
        done;
        scanned := !scanned + chunk
      done
    end;
    if !enter < 0 then begin
      (* Confirm optimality against freshly computed duals: the incremental
         y may have drifted. *)
      compute_duals tab cost y;
      Metrics.incr c_full_pricing_scans;
      let really_optimal = ref true in
      for j = 0 to tab.ncols - 1 do
        if allowed tab ~artificials j && enterable tab j (reduced_cost tab cost y j) then
          really_optimal := false
      done;
      if !really_optimal then finished := true else since_dual_refresh := 0
    end
    else begin
      let j = !enter in
      let d_enter = !d_enter in
      let dir = if tab.at_upper.(j) then -1. else 1. in
      if needs_refactor tab then begin
        refactorize tab;
        compute_duals tab cost y;
        since_dual_refresh := 0
      end;
      ftran tab j w;
      let ub_j = tab.upper.(j) in
      (* Two-sided ratio test. *)
      let leave = ref (-1) and theta = ref infinity and leave_at_upper = ref false in
      for i = 0 to m - 1 do
        let wi = dir *. w.(i) in
        let to_upper = wi < -.Tol.eps_pivot in
        if wi > Tol.eps_pivot || (to_upper && tab.upper.(tab.basis.(i)) < infinity) then begin
          let ratio =
            if to_upper then (tab.upper.(tab.basis.(i)) -. tab.xb.(i)) /. -.wi
            else tab.xb.(i) /. wi
          in
          if
            ratio < !theta -. Tol.eps_pivot
            || (ratio < !theta +. Tol.eps_pivot
               && (!leave < 0
                  ||
                  if bland then tab.basis.(i) < tab.basis.(!leave)
                  else abs_float w.(i) > abs_float w.(!leave)))
          then begin
            theta := ratio;
            leave := i;
            leave_at_upper := to_upper
          end
        end
      done;
      if ub_j < !theta -. Tol.eps_pivot || (!leave < 0 && ub_j < infinity) then begin
        (* Bound flip: the entering column's own bound is the tightest
           limit; it moves to its other bound and the basis is unchanged
           (so are the duals). *)
        for i = 0 to m - 1 do
          let v = tab.xb.(i) -. (ub_j *. dir *. w.(i)) in
          tab.xb.(i) <- (if v < 0. && v > -.Tol.eps_feas then 0. else v)
        done;
        tab.at_upper.(j) <- not tab.at_upper.(j);
        Metrics.incr c_bound_flips;
        if ub_j < Tol.eps_pivot then incr degenerate_streak else degenerate_streak := 0
      end
      else if !leave < 0 then begin
        finished := true;
        unbounded := true
      end
      else if abs_float w.(!leave) < Tol.suspicious_pivot && tab.eta_n > 0 then begin
        (* Suspicious pivot element through a live eta file: a value this
           small may be pure accumulated roundoff, and committing the pivot
           would make the basis genuinely singular.  Refactorize and redo
           the iteration from fresh factors — the fresh ftran either shows a
           trustworthy pivot or steers the ratio test elsewhere. *)
        refactorize tab;
        compute_duals tab cost y;
        since_dual_refresh := 0
      end
      else begin
        let r = !leave in
        let step = if !theta < 0. then 0. else !theta in
        if step < Tol.eps_pivot then incr degenerate_streak else degenerate_streak := 0;
        for i = 0 to m - 1 do
          if i <> r then begin
            let v = tab.xb.(i) -. (step *. dir *. w.(i)) in
            tab.xb.(i) <- (if v < 0. && v > -.Tol.eps_feas then 0. else v)
          end
        done;
        let lc = tab.basis.(r) in
        tab.at_upper.(lc) <- !leave_at_upper;
        tab.xb.(r) <- (if dir > 0. then step else ub_j -. step);
        let alpha = w.(r) in
        append_eta tab w r;
        change_basis tab r j;
        tab.at_upper.(j) <- false;
        incr iter_count;
        Metrics.incr c_pivots;
        (* Incremental dual update: one unit btran gives row r of the new
           basis inverse. *)
        Array.fill tab.work_c 0 m 0.;
        tab.work_c.(r) <- 1.;
        btran tab tab.work_c rho;
        for i = 0 to m - 1 do
          y.(i) <- y.(i) +. (d_enter *. rho.(i))
        done;
        incr since_dual_refresh;
        (* Devex weight update over the pivot row, computed sparsely from
           the CSR rows in the support of rho.  Basic columns are skipped
           while accumulating: their weights are not updated.  Never
           skipped outside Bland's rule: on the heavily degenerate
           scheduling LPs, stale weights collapse devex into Dantzig
           pricing, which stalls in zero-step pivots (measured 15-20x the
           pivot count on the large bench tier). *)
        if not bland then begin
          incr pass;
          let n_touched = ref 0 in
          for i = 0 to m - 1 do
            let rv = rho.(i) in
            if abs_float rv > Tol.devex_rho then
              for e = tab.row_ptr.(i) to tab.row_ptr.(i + 1) - 1 do
                let c = tab.row_idx.(e) in
                if not tab.in_basis.(c) then begin
                  if stamp.(c) <> !pass then begin
                    stamp.(c) <- !pass;
                    touched.(!n_touched) <- c;
                    incr n_touched
                  end;
                  acc.(c) <- acc.(c) +. (tab.row_val.(e) *. rv)
                end
              done
          done;
          let wq = devex.(j) in
          for k = 0 to !n_touched - 1 do
            let c = touched.(k) in
            let a = acc.(c) in
            acc.(c) <- 0.;
            if a <> 0. then begin
              let ratio = a /. alpha in
              let cand = ratio *. ratio *. wq in
              if cand > devex.(c) then begin
                devex.(c) <- cand;
                if cand > !devex_max then devex_max := cand
              end
            end
          done;
          let wl = wq /. (alpha *. alpha) in
          devex.(lc) <- (if wl > 1. then wl else 1.);
          if devex.(lc) > !devex_max then devex_max := devex.(lc);
          devex.(j) <- 1.;
          if !devex_max > 1e8 then begin
            (* Reference framework degraded: restart the weights. *)
            Array.fill devex 0 tab.ncols 1.;
            devex_max := 1.
          end
        end;
        (* A tiny pivot element makes an ill-conditioned eta: refactorize
           away the whole file rather than letting the error compound. *)
        if abs_float alpha < Tol.suspicious_pivot && tab.eta_n > 0 then begin
          refactorize tab;
          compute_duals tab cost y;
          since_dual_refresh := 0
        end
      end
    end
  done;
  if !unbounded then `Unbounded else `Optimal

(* After phase 1, pivot basic artificials out of the basis where possible so
   phase 2 works on structural + slack columns only.  Rows whose artificial
   cannot be evicted are redundant; the artificial stays basic at value 0.
   Nonbasic-at-upper columns are not eviction candidates: pivoting one in at
   value 0 would move it off its bound and change the other basic values. *)
let evict_artificials tab =
  for i = 0 to tab.m - 1 do
    if tab.is_artificial.(tab.basis.(i)) then begin
      let w = tab.work_w in
      let found = ref (-1) in
      let j = ref 0 in
      while !found < 0 && !j < tab.ncols do
        if (not tab.in_basis.(!j)) && (not tab.is_artificial.(!j)) && not tab.at_upper.(!j)
        then begin
          ftran tab !j w;
          if abs_float w.(i) > Tol.crash_pivot then found := !j
        end;
        incr j
      done;
      match !found with
      | -1 -> () (* redundant row; harmless *)
      | j ->
          (* [w] still holds the ftran image of the found column: the scan
             stopped right after computing it.  Basic artificial is at value
             0, so the basic values are unchanged by the pivot. *)
          if tab.eta_n >= eta_cap then begin
            refactorize tab;
            ftran tab j w
          end;
          append_eta tab w i;
          change_basis tab i j
    end
  done

let art_sum tab =
  let s = ref 0. in
  for i = 0 to tab.m - 1 do
    if tab.is_artificial.(tab.basis.(i)) then s := !s +. tab.xb.(i)
  done;
  !s

let any_artificial_basic tab =
  let found = ref false in
  for i = 0 to tab.m - 1 do
    if tab.is_artificial.(tab.basis.(i)) then found := true
  done;
  !found

(* The final basis in model terms, for warm-starting related solves:
   structural columns by variable id, slack/surplus columns by their model
   row, then the nonbasic structural columns parked at their upper bound;
   basic artificials (redundant rows) are omitted. *)
let final_basis tab =
  let acc = ref [] in
  for j = tab.n_struct - 1 downto 0 do
    if tab.at_upper.(j) && not tab.in_basis.(j) then acc := Nonbasic_upper j :: !acc
  done;
  for i = tab.m - 1 downto 0 do
    let j = tab.basis.(i) in
    if j < tab.n_struct then acc := Basic_var j :: !acc
    else if not tab.is_artificial.(j) then
      acc := Basic_slack tab.col_idx.(tab.col_ptr.(j)) :: !acc
  done;
  Array.of_list !acc

(* Phase times are elapsed time on the clock spans use, timed by the solve
   itself, so domains solving at once each report only their own time. *)
let seconds_since t0_us = (Trace.now_us () -. t0_us) /. 1e6

let solve_tab ?max_iters ?warm model =
  Metrics.incr c_solves;
  let tab = build model in
  let m = tab.m in
  let budget =
    match max_iters with Some k -> k | None -> (200 * (m + tab.ncols)) + 5000
  in
  let iter_count = ref 0 in
  (match warm with
  | Some entries -> if not (install_warm tab entries) then reset_basis tab
  | None -> ());
  (* Phase 1: minimize the sum of artificial variables.  Skipped when no
     basic artificial carries value — e.g. a warm basis that is already
     feasible — because 0 is the phase-1 optimum regardless of prices. *)
  let has_artificial = Array.exists (fun a -> a) tab.is_artificial in
  let infeasible = ref false in
  if has_artificial then begin
    let t1 = Trace.now_us () in
    Trace.with_span "simplex.phase1" (fun () ->
        if art_sum tab <= Tol.art_skip then begin
          Metrics.incr c_phase1_skipped;
          if any_artificial_basic tab then evict_artificials tab
        end
        else begin
          let cost1 = Array.make tab.ncols 0. in
          for j = 0 to tab.ncols - 1 do
            if tab.is_artificial.(j) then cost1.(j) <- 1.
          done;
          (match run_phase tab cost1 ~artificials:true budget iter_count with
          | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
          | `Optimal -> ());
          if art_sum tab > Tol.art_infeasible then infeasible := true
          else evict_artificials tab
        end);
    Metrics.add_gauge g_phase1_seconds (seconds_since t1)
  end;
  if !infeasible then
    {
      status = Infeasible;
      objective = nan;
      values = Array.make tab.n_struct 0.;
      duals = Array.make m 0.;
      iterations = !iter_count;
      basis = [||];
    }
  else begin
    let t2 = Trace.now_us () in
    let phase2 =
      Trace.with_span "simplex.phase2" (fun () ->
          run_phase tab tab.cost2 ~artificials:false budget iter_count)
    in
    Metrics.add_gauge g_phase2_seconds (seconds_since t2);
    match phase2 with
    | `Unbounded ->
        {
          status = Unbounded;
          objective = neg_infinity;
          values = Array.make tab.n_struct 0.;
          duals = Array.make m 0.;
          iterations = !iter_count;
          basis = [||];
        }
    | `Optimal ->
        let values = Array.make tab.n_struct 0. in
        let objective = ref 0. in
        for j = 0 to tab.n_struct - 1 do
          if tab.at_upper.(j) && not tab.in_basis.(j) then begin
            values.(j) <- tab.upper.(j);
            objective := !objective +. (tab.cost2.(j) *. tab.upper.(j))
          end
        done;
        for i = 0 to m - 1 do
          let j = tab.basis.(i) in
          let v = if tab.xb.(i) < 0. then 0. else tab.xb.(i) in
          if j < tab.n_struct then values.(j) <- v;
          objective := !objective +. (tab.cost2.(j) *. v)
        done;
        let y = Array.make m 0. in
        compute_duals tab tab.cost2 y;
        (* Undo row sign flips in the reported duals. *)
        for r = 0 to m - 1 do
          if tab.row_flip.(r) then y.(r) <- -.y.(r)
        done;
        {
          status = Optimal;
          objective = !objective;
          values;
          duals = y;
          iterations = !iter_count;
          basis = final_basis tab;
        }
  end

let solve ?max_iters ?warm model =
  Trace.with_span "simplex.solve"
    ~args:(fun () ->
      [
        ("rows", Flowsched_util.Json.Int (Model.num_rows model));
        ("vars", Flowsched_util.Json.Int (Model.num_vars model));
        ("warm", Flowsched_util.Json.Bool (warm <> None));
      ])
    (fun () -> solve_tab ?max_iters ?warm model)

let solve_or_fail ?max_iters ?warm model =
  let res = solve ?max_iters ?warm model in
  match res.status with
  | Optimal -> res
  | Infeasible -> failwith "Simplex.solve_or_fail: infeasible"
  | Unbounded -> failwith "Simplex.solve_or_fail: unbounded"
