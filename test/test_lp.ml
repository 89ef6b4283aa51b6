(* Tests for flowsched_lp: model construction and the two-phase revised
   simplex, including randomized feasibility/optimality properties. *)

open Flowsched_lp

let check_close ?(tol = 1e-6) what expected got =
  if abs_float (expected -. got) > tol then
    Alcotest.failf "%s: expected %.9f, got %.9f" what expected got

(* --- model --- *)

let test_model_basic () =
  let m = Model.create () in
  let x = Model.add_var ~obj:1. m in
  let y = Model.add_var ~obj:3. ~ub:4. m in
  let r = Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Le 10. in
  Alcotest.(check int) "vars" 2 (Model.num_vars m);
  Alcotest.(check int) "rows" 1 (Model.num_rows m);
  check_close "obj coeff" 3. (Model.objective_coeff m y);
  check_close "declared bound" 4. (Model.var_upper m y);
  Alcotest.(check bool) "unbounded by default" true (Model.var_upper m x = infinity);
  check_close "activity" 8. (Model.row_activity m [| 2.; 3. |] r)

let test_model_merges_duplicate_terms () =
  let m = Model.create () in
  let x = Model.add_var m in
  let r = Model.add_constraint m [ (x, 1.); (x, 2.) ] Model.Le 5. in
  match Model.row_terms m r with
  | [ (v, c) ] ->
      Alcotest.(check int) "var" x v;
      check_close "merged coeff" 3. c
  | terms -> Alcotest.failf "expected 1 term, got %d" (List.length terms)

let test_model_rejects_unknown_var () =
  let m = Model.create () in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Model.add_constraint: unknown variable") (fun () ->
      ignore (Model.add_constraint m [ (0, 1.) ] Model.Le 1.))

let test_model_is_feasible () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  Alcotest.(check bool) "feasible point" true (Model.is_feasible m [| 3. |]);
  Alcotest.(check bool) "infeasible point" false (Model.is_feasible m [| 1. |]);
  Alcotest.(check bool) "negative var" false (Model.is_feasible m [| -1. |])

(* --- simplex on hand-checked instances --- *)

let test_simplex_simple_le () =
  (* min -x1 - 2 x2  s.t.  x1 + x2 <= 4, x1 <= 2  =>  x = (0,4), obj -8 *)
  let m = Model.create () in
  let x1 = Model.add_var ~obj:(-1.) m in
  let x2 = Model.add_var ~obj:(-2.) m in
  ignore (Model.add_constraint m [ (x1, 1.); (x2, 1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (x1, 1.) ] Model.Le 2.);
  let r = Simplex.solve m in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_close "objective" (-8.) r.Simplex.objective;
  check_close "x2" 4. r.Simplex.values.(x2)

let test_simplex_ge_rows () =
  (* min 2x + 3y  s.t.  x + y >= 4, x >= 1  => (3,1) obj 9 ... check:
     candidates: y=0,x=4 obj 8; x=1,y=3 obj 11; so optimum is x=4,y=0, obj 8 *)
  let m = Model.create () in
  let x = Model.add_var ~obj:2. m in
  let y = Model.add_var ~obj:3. m in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge 4.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 1.);
  let r = Simplex.solve_or_fail m in
  check_close "objective" 8. r.Simplex.objective;
  check_close "x" 4. r.Simplex.values.(x);
  check_close "y" 0. r.Simplex.values.(y)

let test_simplex_eq_rows () =
  (* min x + y  s.t.  x + 2y = 6, x - y = 0  =>  x = y = 2, obj 4 *)
  let m = Model.create () in
  let x = Model.add_var ~obj:1. m in
  let y = Model.add_var ~obj:1. m in
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Eq 6.);
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Eq 0.);
  let r = Simplex.solve_or_fail m in
  check_close "objective" 4. r.Simplex.objective;
  check_close "x" 2. r.Simplex.values.(x);
  check_close "y" 2. r.Simplex.values.(y)

let test_simplex_negative_rhs () =
  (* min x s.t. -x <= -3  (i.e. x >= 3) *)
  let m = Model.create () in
  let x = Model.add_var ~obj:1. m in
  ignore (Model.add_constraint m [ (x, -1.) ] Model.Le (-3.));
  let r = Simplex.solve_or_fail m in
  check_close "objective" 3. r.Simplex.objective

let test_simplex_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  let r = Simplex.solve m in
  Alcotest.(check bool) "infeasible" true (r.Simplex.status = Simplex.Infeasible)

let test_simplex_unbounded () =
  let m = Model.create () in
  let x = Model.add_var ~obj:(-1.) m in
  let y = Model.add_var m in
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Le 1.);
  let r = Simplex.solve m in
  Alcotest.(check bool) "unbounded" true (r.Simplex.status = Simplex.Unbounded)

let test_simplex_no_rows () =
  let m = Model.create () in
  let _x = Model.add_var ~obj:5. m in
  let r = Simplex.solve m in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_close "trivial optimum" 0. r.Simplex.objective

let test_simplex_redundant_equalities () =
  (* x + y = 2 appears twice: the second row is redundant, the artificial
     stays basic at zero and must not break phase 2. *)
  let m = Model.create () in
  let x = Model.add_var ~obj:1. m in
  let y = Model.add_var ~obj:2. m in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Eq 2.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Eq 2.);
  let r = Simplex.solve_or_fail m in
  check_close "objective" 2. r.Simplex.objective;
  check_close "x" 2. r.Simplex.values.(x)

let test_simplex_degenerate () =
  (* Klee-Minty-flavoured degeneracy: multiple constraints tight at the
     optimum. Bland fallback must keep it terminating. *)
  let m = Model.create () in
  let x = Model.add_var ~obj:(-1.) m in
  let y = Model.add_var ~obj:(-1.) m in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (y, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 2.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Le 3.);
  let r = Simplex.solve_or_fail m in
  check_close "objective" (-2.) r.Simplex.objective

let test_simplex_vertex_property () =
  (* basic solutions have at most [rows] non-zero structural values *)
  let m = Model.create () in
  let vars = Array.init 20 (fun i -> Model.add_var ~obj:(1. +. float_of_int (i mod 3)) m) in
  ignore
    (Model.add_constraint m (Array.to_list (Array.map (fun v -> (v, 1.)) vars)) Model.Ge 5.);
  ignore
    (Model.add_constraint m
       (Array.to_list (Array.mapi (fun i v -> (v, float_of_int ((i mod 4) + 1))) vars))
       Model.Ge 7.);
  let r = Simplex.solve_or_fail m in
  let nonzero = Array.fold_left (fun acc v -> if v > 1e-9 then acc + 1 else acc) 0 r.Simplex.values in
  Alcotest.(check bool) "vertex support <= rows" true (nonzero <= Model.num_rows m)

let test_simplex_duals_weak_duality () =
  (* min 3x + 2y s.t. x + y >= 2, x >= 0.5: duals must satisfy y'b = obj at
     optimum (strong duality for LP). *)
  let m = Model.create () in
  let x = Model.add_var ~obj:3. m in
  let y = Model.add_var ~obj:2. m in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge 2.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 0.5);
  let r = Simplex.solve_or_fail m in
  let dual_obj = (r.Simplex.duals.(0) *. 2.) +. (r.Simplex.duals.(1) *. 0.5) in
  check_close "strong duality" r.Simplex.objective dual_obj

let test_simplex_solution_feasible () =
  let m = Model.create () in
  let x = Model.add_var ~obj:1. m in
  let y = Model.add_var ~obj:4. m in
  let z = Model.add_var ~obj:2. m in
  ignore (Model.add_constraint m [ (x, 2.); (y, 1.); (z, 1.) ] Model.Ge 6.);
  ignore (Model.add_constraint m [ (x, 1.); (z, 3.) ] Model.Ge 4.);
  ignore (Model.add_constraint m [ (y, 1.); (z, 1.) ] Model.Le 5.);
  let r = Simplex.solve_or_fail m in
  Alcotest.(check bool) "solution feasible" true (Model.is_feasible m r.Simplex.values)

(* Random mixed-sense LPs for the reference-solver cross-check: coefficients
   in 0..3, senses random, all objective coefficients >= 0 so the problem is
   never unbounded (outcomes are Optimal or Infeasible only). *)
let gen_random_lp_for_reference =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 6 in
    let* rows = int_range 1 6 in
    return (seed, n, rows))

let build_mixed_lp (seed, n, rows) =
  let g = Flowsched_util.Prng.create (seed + 17) in
  let m = Model.create () in
  let vars =
    Array.init n (fun _ -> Model.add_var ~obj:(float_of_int (Flowsched_util.Prng.int g 4)) m)
  in
  for _ = 1 to rows do
    let terms = ref [] in
    Array.iter
      (fun v ->
        let c = Flowsched_util.Prng.int g 4 in
        if c > 0 then terms := (v, float_of_int c) :: !terms)
      vars;
    if !terms <> [] then begin
      let sense =
        match Flowsched_util.Prng.int g 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq
      in
      ignore (Model.add_constraint m !terms sense (float_of_int (Flowsched_util.Prng.int g 9)))
    end
  done;
  m

(* --- independent reference solver ---

   A naive dense full-tableau Big-M simplex with Bland's rule.  Slow and
   numerically crude, but completely independent of the production solver's
   code paths (no revised form, no phase split, no incremental duals), so
   agreement on random instances is a meaningful cross-check. *)

let reference_solve model =
  let n = Model.num_vars model in
  let rows = Model.num_rows model in
  let big_m = 1e7 in
  (* columns: structural n, then one slack/surplus per inequality, then one
     artificial per Ge/Eq row; rhs normalized to >= 0 *)
  let n_slack =
    ref 0
  in
  let n_art = ref 0 in
  for r = 0 to rows - 1 do
    let rhs = Model.row_rhs model r in
    let sense = Model.row_sense model r in
    let sense = if rhs < 0. then (match sense with Model.Le -> Model.Ge | Model.Ge -> Model.Le | Model.Eq -> Model.Eq) else sense in
    (match sense with Model.Le | Model.Ge -> incr n_slack | Model.Eq -> ());
    (match sense with Model.Ge | Model.Eq -> incr n_art | Model.Le -> ())
  done;
  let ncols = n + !n_slack + !n_art in
  let tab = Array.make_matrix rows (ncols + 1) 0. in
  let cost = Array.make ncols 0. in
  for v = 0 to n - 1 do
    cost.(v) <- Model.objective_coeff model v
  done;
  let basis = Array.make rows (-1) in
  let next_slack = ref n and next_art = ref (n + !n_slack) in
  for r = 0 to rows - 1 do
    let rhs = Model.row_rhs model r in
    let sign = if rhs < 0. then -1. else 1. in
    let sense =
      let s = Model.row_sense model r in
      if rhs < 0. then (match s with Model.Le -> Model.Ge | Model.Ge -> Model.Le | Model.Eq -> Model.Eq) else s
    in
    List.iter (fun (v, c) -> tab.(r).(v) <- sign *. c) (Model.row_terms model r);
    tab.(r).(ncols) <- sign *. rhs;
    (match sense with
    | Model.Le ->
        tab.(r).(!next_slack) <- 1.;
        basis.(r) <- !next_slack;
        incr next_slack
    | Model.Ge ->
        tab.(r).(!next_slack) <- -1.;
        incr next_slack;
        tab.(r).(!next_art) <- 1.;
        cost.(!next_art) <- big_m;
        basis.(r) <- !next_art;
        incr next_art
    | Model.Eq ->
        tab.(r).(!next_art) <- 1.;
        cost.(!next_art) <- big_m;
        basis.(r) <- !next_art;
        incr next_art)
  done;
  (* Bland's rule pivoting on reduced costs z_j - c_j *)
  let max_pivots = 200 * (rows + ncols) + 1000 in
  let rec iterate k =
    if k > max_pivots then `GiveUp
    else begin
      let reduced j =
        let zj = ref 0. in
        for r = 0 to rows - 1 do
          zj := !zj +. (cost.(basis.(r)) *. tab.(r).(j))
        done;
        cost.(j) -. !zj
      in
      let enter = ref (-1) in
      (try
         for j = 0 to ncols - 1 do
           if reduced j < -1e-7 then begin
             enter := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !enter < 0 then `Done
      else begin
        let j = !enter in
        let leave = ref (-1) and best = ref infinity in
        for r = 0 to rows - 1 do
          if tab.(r).(j) > 1e-9 then begin
            let ratio = tab.(r).(ncols) /. tab.(r).(j) in
            if
              ratio < !best -. 1e-12
              || (abs_float (ratio -. !best) <= 1e-12
                 && (!leave < 0 || basis.(r) < basis.(!leave)))
            then begin
              best := ratio;
              leave := r
            end
          end
        done;
        if !leave < 0 then `Unbounded
        else begin
          let r = !leave in
          let piv = tab.(r).(j) in
          for c = 0 to ncols do
            tab.(r).(c) <- tab.(r).(c) /. piv
          done;
          for r' = 0 to rows - 1 do
            if r' <> r && tab.(r').(j) <> 0. then begin
              let f = tab.(r').(j) in
              for c = 0 to ncols do
                tab.(r').(c) <- tab.(r').(c) -. (f *. tab.(r).(c))
              done
            end
          done;
          basis.(r) <- j;
          iterate (k + 1)
        end
      end
    end
  in
  match iterate 0 with
  | `GiveUp -> `GiveUp
  | `Unbounded -> `Unbounded
  | `Done ->
      (* artificial left basic at positive value -> infeasible *)
      let infeasible = ref false in
      let objective = ref 0. in
      for r = 0 to rows - 1 do
        if basis.(r) >= n + !n_slack && tab.(r).(ncols) > 1e-5 then infeasible := true;
        if basis.(r) < n then objective := !objective +. (cost.(basis.(r)) *. tab.(r).(ncols))
      done;
      if !infeasible then `Infeasible else `Optimal !objective

let prop_matches_reference_solver =
  QCheck2.Test.make ~name:"revised simplex = naive Big-M tableau oracle" ~count:200
    gen_random_lp_for_reference (fun params ->
      let model = build_mixed_lp params in
      let ours = Simplex.solve model in
      match (reference_solve model, ours.Simplex.status) with
      | `Optimal obj, Simplex.Optimal -> abs_float (obj -. ours.Simplex.objective) < 1e-4
      | `Infeasible, Simplex.Infeasible -> true
      | `Unbounded, Simplex.Unbounded -> true
      | `GiveUp, _ -> true (* oracle timed out; no verdict *)
      | _ -> false)

(* --- classic stress instances --- *)

let test_klee_minty () =
  (* Klee-Minty cube, n = 6: min -sum 2^(n-j) x_j subject to
     2*sum_{j<i} 2^(i-j) x_j + x_i <= 5^i; optimum -5^n.  Exponential for a
     naive Dantzig walk on the worst basis ordering, but must still solve
     correctly and within the iteration budget. *)
  let n = 6 in
  let m = Model.create () in
  let xs =
    Array.init n (fun j ->
        Model.add_var ~obj:(-.(2. ** float_of_int (n - 1 - j))) m)
  in
  for i = 0 to n - 1 do
    let terms = ref [ (xs.(i), 1.) ] in
    for j = 0 to i - 1 do
      terms := (xs.(j), 2. *. (2. ** float_of_int (i - j))) :: !terms
    done;
    ignore (Model.add_constraint m !terms Model.Le (5. ** float_of_int (i + 1)))
  done;
  let r = Simplex.solve_or_fail m in
  check_close ~tol:1e-3 "Klee-Minty optimum" (-.(5. ** float_of_int n)) r.Simplex.objective

let test_beale_cycling () =
  (* Beale's classic cycling example; Bland's fallback must terminate it
     at the optimum -0.05. *)
  let m = Model.create () in
  let x4 = Model.add_var ~obj:(-0.75) m in
  let x5 = Model.add_var ~obj:150. m in
  let x6 = Model.add_var ~obj:(-0.02) m in
  let x7 = Model.add_var ~obj:6. m in
  ignore (Model.add_constraint m [ (x4, 0.25); (x5, -60.); (x6, -0.04); (x7, 9.) ] Model.Le 0.);
  ignore (Model.add_constraint m [ (x4, 0.5); (x5, -90.); (x6, -0.02); (x7, 3.) ] Model.Le 0.);
  ignore (Model.add_constraint m [ (x6, 1.) ] Model.Le 1.);
  let r = Simplex.solve_or_fail m in
  check_close ~tol:1e-9 "Beale optimum" (-0.05) r.Simplex.objective

let test_iteration_limit_raises () =
  let m = Model.create () in
  let vars = Array.init 12 (fun i -> Model.add_var ~obj:(-1. -. float_of_int i) m) in
  Array.iter (fun v -> ignore (Model.add_constraint m [ (v, 1.) ] Model.Le 1.)) vars;
  ignore
    (Model.add_constraint m (Array.to_list (Array.map (fun v -> (v, 1.)) vars)) Model.Le 6.);
  (try
     ignore (Simplex.solve ~max_iters:1 m);
     Alcotest.fail "expected Iteration_limit"
   with Simplex.Iteration_limit _ -> ());
  (* and with a sane budget the same model solves *)
  let r = Simplex.solve_or_fail m in
  Alcotest.(check bool) "solves with budget" true (r.Simplex.objective < 0.)

let test_solve_leaves_model_unchanged () =
  (* The simplex normalizes signs and adds slacks on its own copy: a solve
     must leave the model's matrix, senses, right-hand sides, objective and
     bounds as they were. *)
  let m = Model.create () in
  let x = Model.add_var ~obj:1. m in
  let y = Model.add_var ~obj:2. ~ub:3. m in
  ignore (Model.add_constraint m [ (x, 2.); (y, 1.) ] Model.Ge 4.);
  ignore (Model.add_constraint m [ (x, -1.) ] Model.Le (-1.));
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Eq 2.);
  let snapshot () =
    ( Model.to_csc m,
      List.init (Model.num_rows m) (fun r -> (Model.row_sense m r, Model.row_rhs m r)),
      List.init (Model.num_vars m) (fun v -> (Model.objective_coeff m v, Model.var_upper m v)) )
  in
  let before = snapshot () in
  let r = Simplex.solve_or_fail m in
  Alcotest.(check bool) "model unchanged by solving" true (snapshot () = before);
  check_close "objective" 2. r.Simplex.objective

(* --- randomized properties --- *)

(* Build a random feasible LP: pick x0 >= 0, random sparse A >= 0, set
   b_i = (A x0)_i with Le sense, plus demand rows keeping it bounded. *)
let gen_random_lp =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 12 in
    let* rows = int_range 1 8 in
    return (seed, n, rows))

let build_random_lp (seed, n, rows) =
  let g = Flowsched_util.Prng.create seed in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.add_var ~obj:(float_of_int (Flowsched_util.Prng.int g 5)) m) in
  let x0 = Array.init n (fun _ -> float_of_int (Flowsched_util.Prng.int g 4)) in
  for _ = 1 to rows do
    let terms = ref [] in
    let activity = ref 0. in
    Array.iteri
      (fun i v ->
        if Flowsched_util.Prng.int g 3 > 0 then begin
          let c = float_of_int (1 + Flowsched_util.Prng.int g 3) in
          terms := (v, c) :: !terms;
          activity := !activity +. (c *. x0.(i))
        end)
      vars;
    if !terms <> [] then begin
      let slackness = float_of_int (Flowsched_util.Prng.int g 3) in
      ignore (Model.add_constraint m !terms Model.Le (!activity +. slackness))
    end
  done;
  (m, x0)

let prop_random_feasible_lp_optimal =
  QCheck2.Test.make ~name:"random feasible LP solves to feasible vertex" ~count:300
    gen_random_lp (fun params ->
      let m, x0 = build_random_lp params in
      let r = Simplex.solve m in
      match r.Simplex.status with
      | Simplex.Optimal ->
          let c_x0 =
            Array.to_list x0
            |> List.mapi (fun i v -> Model.objective_coeff m i *. v)
            |> List.fold_left ( +. ) 0.
          in
          Model.is_feasible ~tol:1e-5 m r.Simplex.values
          && r.Simplex.objective <= c_x0 +. 1e-6
      | _ -> false)

let prop_random_lp_with_demands =
  (* Mixed Ge/Le rows exercising phase 1: x_i >= d_i plus a generous shared
     capacity; optimum is the sum of demand costs. *)
  QCheck2.Test.make ~name:"phase-1 LPs: per-var demand + shared capacity" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 10))
    (fun (seed, n) ->
      let g = Flowsched_util.Prng.create seed in
      let m = Model.create () in
      let demands = Array.init n (fun _ -> float_of_int (Flowsched_util.Prng.int g 3)) in
      let vars = Array.init n (fun _ -> Model.add_var ~obj:1. m) in
      Array.iteri (fun i v -> ignore (Model.add_constraint m [ (v, 1.) ] Model.Ge demands.(i))) vars;
      let total = Array.fold_left ( +. ) 0. demands in
      ignore
        (Model.add_constraint m
           (Array.to_list (Array.map (fun v -> (v, 1.)) vars))
           Model.Le (total +. 5.));
      let r = Simplex.solve m in
      r.Simplex.status = Simplex.Optimal && abs_float (r.Simplex.objective -. total) < 1e-6)

let prop_scaling_invariance =
  (* Scaling a row must not change the optimum. *)
  QCheck2.Test.make ~name:"row scaling invariance" ~count:100
    QCheck2.Gen.(pair (int_bound 100_000) (float_range 0.5 8.))
    (fun (seed, scale) ->
      let g = Flowsched_util.Prng.create seed in
      let build scale =
        let m = Model.create () in
        let x = Model.add_var ~obj:(1. +. float_of_int (Flowsched_util.Prng.int (Flowsched_util.Prng.copy g) 3)) m in
        let y = Model.add_var ~obj:2. m in
        ignore (Model.add_constraint m [ (x, scale); (y, scale) ] Model.Ge (2. *. scale));
        Simplex.solve m
      in
      let r1 = build 1. and r2 = build scale in
      r1.Simplex.status = Simplex.Optimal
      && r2.Simplex.status = Simplex.Optimal
      && abs_float (r1.Simplex.objective -. r2.Simplex.objective) < 1e-6)

(* --- warm starts --- *)

let test_warm_resolve_same_model () =
  (* Re-solving a model seeded with its own optimal basis must confirm the
     same optimum in (at most) as many pivots — near zero in practice.  The
     second model is LP (1)-(4) of 24 unit flows on a 4x4 switch. *)
  let art_lp =
    (Flowsched_core.Art_lp.build_round_lp
       (Flowsched_sim.Workload.uniform_total ~m:4 ~n:24 ~max_release:6 ~seed:41))
      .Flowsched_core.Art_lp.model
  in
  List.iter
    (fun (label, m) ->
      let r1 = Simplex.solve_or_fail m in
      let r2 = Simplex.solve_or_fail ~warm:(Array.to_list r1.Simplex.basis) m in
      Alcotest.(check bool) (label ^ ": same objective") true
        (abs_float (r1.Simplex.objective -. r2.Simplex.objective) <= 1e-9);
      Alcotest.(check bool) (label ^ ": no more pivots than cold") true
        (r2.Simplex.iterations <= r1.Simplex.iterations))
    [ ("random LP", fst (build_random_lp (7, 10, 6))); ("ART round LP, n=24", art_lp) ]

let test_warm_basis_shape () =
  (* The returned basis only names structural vars and row slacks, never
     more entries than rows. *)
  let m = build_mixed_lp (3, 5, 5) in
  let r = Simplex.solve m in
  match r.Simplex.status with
  | Simplex.Optimal ->
      Alcotest.(check bool) "basis fits rows" true
        (Array.length r.Simplex.basis <= Model.num_rows m);
      Array.iter
        (function
          | Simplex.Basic_var v ->
              Alcotest.(check bool) "var id in range" true (v >= 0 && v < Model.num_vars m)
          | Simplex.Basic_slack row ->
              Alcotest.(check bool) "row id in range" true
                (row >= 0 && row < Model.num_rows m)
          | Simplex.Nonbasic_upper v ->
              Alcotest.(check bool) "upper-bound var id in range" true
                (v >= 0 && v < Model.num_vars m))
        r.Simplex.basis
  | _ -> ()

let test_counters_accounting () =
  let module M = Flowsched_obs.Metrics in
  let before = M.snapshot () in
  let m, _ = build_random_lp (11, 8, 5) in
  let r = Simplex.solve_or_fail m in
  let d = M.diff (M.snapshot ()) before in
  Alcotest.(check int) "one solve recorded" 1 (M.counter_in d "simplex.solves");
  Alcotest.(check int) "pivots = result iterations" r.Simplex.iterations
    (M.counter_in d "simplex.pivots");
  Alcotest.(check bool) "snapshot is detached" true
    (let snap = M.snapshot () in
     ignore (Simplex.solve m);
     M.counter_in snap "simplex.solves" = M.counter_in before "simplex.solves" + 1)

let test_phase_time_is_per_domain_wall_time () =
  let module M = Flowsched_obs.Metrics in
  let phases () =
    M.gauge_value (M.gauge "simplex.phase1_seconds")
    +. M.gauge_value (M.gauge "simplex.phase2_seconds")
  in
  (* LP (1)-(4) of 96 unit flows on a 6x6 switch released over 8 rounds,
     the size of the benchmark's offline instances. *)
  let model seed =
    let g = Flowsched_util.Prng.create seed in
    let int k = Flowsched_util.Prng.int g k in
    let inst =
      Flowsched_switch.Instance.of_flows ~m:6 ~m':6 (List.init 96 (fun _ -> (int 6, int 6, 1, int 8)))
    in
    (Flowsched_core.Art_lp.build_round_lp inst).Flowsched_core.Art_lp.model
  in
  let solve_in_domain seed =
    Domain.spawn (fun () ->
        let model = model seed in
        let before = phases () in
        let t0 = Unix.gettimeofday () in
        ignore (Simplex.solve_or_fail model);
        let wall = Unix.gettimeofday () -. t0 in
        (phases () -. before, wall))
  in
  let d1 = solve_in_domain 1 and d2 = solve_in_domain 2 in
  List.iter
    (fun (phase, wall) ->
      Alcotest.(check bool)
        (Printf.sprintf "phase time %.6fs within the solve's wall time %.6fs" phase wall)
        true
        (phase > 0. && phase <= wall +. 1e-6))
    [ Domain.join d1; Domain.join d2 ]

(* --- sparse LU --- *)

(* Dense Gaussian elimination with partial pivoting, as the oracle for
   Sparse_lu: returns the solution of [a] x = [rhs], or None if singular. *)
let dense_solve a rhs =
  let n = Array.length rhs in
  let m = Array.map Array.copy a in
  let b = Array.copy rhs in
  let ok = ref true in
  for k = 0 to n - 1 do
    if !ok then begin
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if abs_float m.(i).(k) > abs_float m.(!piv).(k) then piv := i
      done;
      if abs_float m.(!piv).(k) < 1e-10 then ok := false
      else begin
        if !piv <> k then begin
          let t = m.(k) in
          m.(k) <- m.(!piv);
          m.(!piv) <- t;
          let t = b.(k) in
          b.(k) <- b.(!piv);
          b.(!piv) <- t
        end;
        for i = k + 1 to n - 1 do
          let f = m.(i).(k) /. m.(k).(k) in
          if f <> 0. then begin
            for jj = k to n - 1 do
              m.(i).(jj) <- m.(i).(jj) -. (f *. m.(k).(jj))
            done;
            b.(i) <- b.(i) -. (f *. b.(k))
          end
        done
      end
    end
  done;
  if not !ok then None
  else begin
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let s = ref b.(i) in
      for jj = i + 1 to n - 1 do
        s := !s -. (m.(i).(jj) *. x.(jj))
      done;
      x.(i) <- !s /. m.(i).(i)
    done;
    Some x
  end

let transpose a =
  let n = Array.length a in
  Array.init n (fun i -> Array.init n (fun j -> a.(j).(i)))

(* Random dense matrix as (dense array, Sparse_lu column accessor): entries
   in [-4, 4] with a sparsity mask, so the LU sees genuinely sparse
   columns. *)
let gen_matrix seed n =
  let g = Flowsched_util.Prng.create seed in
  let a =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            if Flowsched_util.Prng.int g 3 = 0 then 0.
            else float_of_int (Flowsched_util.Prng.int g 9 - 4)))
  in
  (* Nudge the diagonal so random instances are usually nonsingular (the
     oracle still decides; this only improves the generator's yield). *)
  for i = 0 to n - 1 do
    if a.(i).(i) = 0. then a.(i).(i) <- 1.
  done;
  let col j =
    let rows = ref [] and vals = ref [] in
    for i = n - 1 downto 0 do
      if a.(i).(j) <> 0. then begin
        rows := i :: !rows;
        vals := a.(i).(j) :: !vals
      end
    done;
    (Array.of_list !rows, Array.of_list !vals)
  in
  (a, col)

(* The matrix whose slot [s] column is [col s] as compressed sparse
   columns, factored in place with the identity basis. *)
let csc_of_cols n col =
  let cols = Array.init n col in
  let col_ptr = Array.make (n + 1) 0 in
  Array.iteri (fun j (rows, _) -> col_ptr.(j + 1) <- col_ptr.(j) + Array.length rows) cols;
  ( col_ptr,
    Array.concat (Array.to_list (Array.map fst cols)),
    Array.concat (Array.to_list (Array.map snd cols)) )

let factor_cols n col =
  let col_ptr, row_ind, values = csc_of_cols n col in
  let lu = Sparse_lu.create n in
  Sparse_lu.factorize lu ~col_ptr ~row_ind ~values ~basis:(Array.init n Fun.id);
  lu

let prop_sparse_lu_matches_dense =
  QCheck2.Test.make ~name:"sparse LU solve/solve_t = dense Gaussian oracle" ~count:500
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 9))
    (fun (seed, n) ->
      let a, col = gen_matrix seed n in
      let g = Flowsched_util.Prng.create (seed + 31) in
      let rhs = Array.init n (fun _ -> float_of_int (Flowsched_util.Prng.int g 11 - 5)) in
      match dense_solve a rhs with
      | None -> (
          (* Oracle says (near-)singular: the LU must agree rather than
             silently produce garbage. *)
          match factor_cols n col with
          | exception Sparse_lu.Singular -> true
          | lu ->
              (* Threshold pivoting may still factor a matrix the oracle
                 rejects as borderline: accept if residuals are sane. *)
              let x = Array.make n 0. in
              Sparse_lu.solve lu rhs x;
              Array.for_all (fun v -> Float.is_finite v) x)
      | Some x_ref -> (
          match factor_cols n col with
          | exception Sparse_lu.Singular -> false (* oracle solved it *)
          | lu ->
              let x = Array.make n 0. in
              Sparse_lu.solve lu rhs x;
              let ftran_ok =
                Array.for_all2 (fun got want -> abs_float (got -. want) < 1e-6) x x_ref
              in
              let y_ref =
                match dense_solve (transpose a) rhs with
                | Some y -> y
                | None -> Alcotest.fail "transpose singular but matrix was not"
              in
              let y = Array.make n 0. in
              Sparse_lu.solve_t lu rhs y;
              let btran_ok =
                Array.for_all2 (fun got want -> abs_float (got -. want) < 1e-6) y y_ref
              in
              ftran_ok && btran_ok))

let test_sparse_lu_singular_zero_column () =
  (* A structurally empty column must raise Singular, not crash or loop. *)
  let col j = if j = 0 then ([| 0; 1 |], [| 1.; 2. |]) else ([||], [||]) in
  Alcotest.check_raises "zero column" Sparse_lu.Singular (fun () -> ignore (factor_cols 2 col))

let test_sparse_lu_singular_duplicate_column () =
  (* Two identical columns: numerically singular, caught during
     elimination rather than up front. *)
  let col _ = ([| 0; 1 |], [| 1.; 2. |]) in
  Alcotest.check_raises "duplicate columns" Sparse_lu.Singular (fun () ->
      ignore (factor_cols 2 col))

let test_sparse_lu_identity_and_permutation () =
  (* Identity: solve is the identity map. *)
  let lu = factor_cols 3 (fun j -> ([| j |], [| 1. |])) in
  let x = Array.make 3 0. in
  Sparse_lu.solve lu [| 7.; -2.; 5. |] x;
  Alcotest.(check (array (float 1e-9))) "identity solve" [| 7.; -2.; 5. |] x;
  (* Permutation with scaling: column j has its entry on row (j+1) mod 3. *)
  let lu = factor_cols 3 (fun j -> ([| (j + 1) mod 3 |], [| 2. |])) in
  Sparse_lu.solve lu [| 2.; 4.; 6. |] x;
  (* x_j carries b at row (j+1) mod 3, halved. *)
  Alcotest.(check (array (float 1e-9))) "permutation solve" [| 2.; 3.; 1. |] x

(* A factorization that fails must leave the live one in use: factor A,
   then B into the reused storage, then try singular and malformed
   matrices; every solve must still be B's. *)
let test_sparse_lu_singular_keeps_live () =
  let n = 3 in
  let a = [| [| 2.; 0.; 1. |]; [| 1.; 3.; 0. |]; [| 0.; 1.; 4. |] |] in
  let b = [| [| 1.; 2.; 0. |]; [| 0.; 1.; 5. |]; [| 3.; 0.; 1. |] |] in
  (* Columns 0-2 are A's, 3-5 are B's, 6 and 7 both B's first column, and
     8 is empty. *)
  let cols =
    Array.init 9 (fun c ->
        if c >= 8 then ([||], [||])
        else
          let mat, j = if c < 3 then (a, c) else if c < 6 then (b, c - 3) else (b, 0) in
          let rows = List.filter (fun i -> mat.(i).(j) <> 0.) (List.init n Fun.id) in
          (Array.of_list rows, Array.of_list (List.map (fun i -> mat.(i).(j)) rows)))
  in
  let col_ptr, row_ind, values = csc_of_cols 9 (fun c -> cols.(c)) in
  let lu = Sparse_lu.create n in
  let factor basis = Sparse_lu.factorize lu ~col_ptr ~row_ind ~values ~basis in
  let rhs = [| 1.; -2.; 3. |] in
  let x_of mat = match dense_solve mat rhs with Some x -> x | None -> assert false in
  let y_of mat = match dense_solve (transpose mat) rhs with Some y -> y | None -> assert false in
  let check_live what =
    let x = Array.make n 0. and y = Array.make n 0. in
    Sparse_lu.solve lu rhs x;
    Sparse_lu.solve_t lu rhs y;
    Alcotest.(check (array (float 1e-9))) (what ^ ": solve") (x_of b) x;
    Alcotest.(check (array (float 1e-9))) (what ^ ": solve_t") (y_of b) y
  in
  factor [| 0; 1; 2 |];
  factor [| 3; 4; 5 |];
  check_live "after two factorizations";
  let nnz = Sparse_lu.nnz lu in
  Alcotest.check_raises "duplicate columns" Sparse_lu.Singular (fun () -> factor [| 6; 7; 4 |]);
  check_live "after a singular candidate";
  Alcotest.check_raises "empty column" Sparse_lu.Singular (fun () -> factor [| 3; 8; 5 |]);
  check_live "after a second singular candidate";
  Alcotest.check_raises "short basis"
    (Invalid_argument "Sparse_lu.factorize: basis length is not m") (fun () -> factor [| 0; 1 |]);
  check_live "after a malformed basis";
  Alcotest.(check int) "nnz unchanged" nnz (Sparse_lu.nnz lu);
  factor [| 0; 1; 2 |];
  let x = Array.make n 0. in
  Sparse_lu.solve lu rhs x;
  Alcotest.(check (array (float 1e-9))) "refactored A" (x_of a) x

(* A pool of sparse columns over [n] rows and a way to draw bases from
   it, in one of three styles:
   - LP-like: each slot is a row's unit slack or one of two structural
     columns homed on that row (2-3 entries, the home entry dominating the
     column, so the basis is nonsingular);
   - the dense [gen_matrix];
   - that matrix with about a third of its columns replaced by slacks.
   Slacks and short columns make many equal lengths, so the column
   order's tie rule decides a lot.  One basis in six duplicates a column
   and one in twelve takes an empty one, which makes it singular.  Values
   are inexact in binary, so a changed elimination order shows in the low
   bits.  Bases list their columns in shuffled slot order. *)
let gen_lu_pool seed n =
  let g = Flowsched_util.Prng.create seed in
  let int k = Flowsched_util.Prng.int g k in
  let sign v = if int 2 = 0 then v else -.v in
  let shuffle a =
    for k = Array.length a - 1 downto 1 do
      let r = int (k + 1) in
      let x = a.(k) in
      a.(k) <- a.(r);
      a.(r) <- x
    done;
    a
  in
  let slack r = ([| r |], [| sign 1. |]) in
  let structural home =
    let others = List.filter (( <> ) home) (Array.to_list (shuffle (Array.init n Fun.id))) in
    let others = List.filteri (fun i _ -> i < 1 + int 2) others in
    let rows = shuffle (Array.of_list (home :: others)) in
    ( rows,
      Array.map
        (fun r ->
          if r = home then sign (5. +. (float_of_int (int 28) /. 7.))
          else sign (float_of_int (1 + int 14) /. 7.))
        rows )
  in
  let dense, _ = gen_matrix seed n in
  let dense_col j =
    let rows = List.filter (fun i -> dense.(i).(j) <> 0.) (List.init n Fun.id) in
    (Array.of_list rows, Array.of_list (List.map (fun i -> dense.(i).(j) /. 7.) rows))
  in
  let style = int 3 in
  (* Slacks at 0 .. n-1, then two structural columns per row or the dense
     columns, then one empty column. *)
  let pool =
    Array.init
      ((if style = 0 then 3 * n else 2 * n) + 1)
      (fun c ->
        if c < n then slack c
        else if c = (if style = 0 then 3 * n else 2 * n) then ([||], [||])
        else if style = 0 then structural ((c - n) / 2)
        else dense_col (c - n))
  in
  let empty = Array.length pool - 1 in
  let basis () =
    let b =
      Array.init n (fun r ->
          match style with
          | 0 -> ( match int 3 with 0 -> r | k -> n + (2 * r) + k - 1)
          | 1 -> n + r
          | _ -> if int 3 = 0 then r else n + r)
    in
    if int 6 = 0 then b.(int n) <- b.(int n);
    if int 12 = 0 then b.(int n) <- empty;
    shuffle b
  in
  let rhs () = Array.init n (fun _ -> if int 4 = 0 then 0. else sign (1. +. (float_of_int (int 64) /. 7.))) in
  (pool, rhs, basis)

let prop_sparse_lu_matches_reference =
  QCheck2.Test.make ~name:"sparse LU = reference LU, bit for bit" ~count:400
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 60))
    (fun (seed, n) ->
      let pool, rhs, basis = gen_lu_pool seed n in
      let col_ptr, row_ind, values = csc_of_cols (Array.length pool) (fun c -> pool.(c)) in
      let bits v = Array.map Int64.bits_of_float v in
      (* Three bases through one storage, so reuse and the swap after a
         singular candidate are exercised too. *)
      let lu = Sparse_lu.create n in
      List.for_all
        (fun _ ->
          let basis = basis () in
          let reference =
            match Reference.Sparse_lu.factorize ~m:n ~col:(fun s -> pool.(basis.(s))) with
            | exception Reference.Sparse_lu.Singular -> None
            | r -> Some r
          in
          let factored =
            match Sparse_lu.factorize lu ~col_ptr ~row_ind ~values ~basis with
            | exception Sparse_lu.Singular -> false
            | () -> true
          in
          match reference with
          | None -> not factored
          | Some _ when not factored -> false
          | Some r ->
              let b = rhs () in
              let solved f t = let out = Array.make n 0. in f t b out; bits out in
              Reference.Sparse_lu.nnz r = Sparse_lu.nnz lu
              && solved Reference.Sparse_lu.solve r = solved Sparse_lu.solve lu
              && solved Reference.Sparse_lu.solve_t r = solved Sparse_lu.solve_t lu)
        [ 1; 2; 3 ])

(* --- bounded variables --- *)

let test_bounded_binding_upper () =
  (* min -x - y  s.t.  x + y <= 4,  x <= 2.5 (declared)  =>  x=2.5, y=1.5 *)
  let m = Model.create () in
  let x = Model.add_var ~obj:(-1.) ~ub:2.5 m in
  let y = Model.add_var ~obj:(-1.) m in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 4.);
  let r = Simplex.solve_or_fail m in
  check_close "objective" (-4.) r.Simplex.objective;
  check_close "x at its bound" 2.5 r.Simplex.values.(x);
  check_close "y fills the row" 1.5 r.Simplex.values.(y)

let test_bounded_pure_flip_no_rows () =
  (* min -x with x <= 3 and no constraint rows: the optimum is a pure bound
     flip — no basis, no pivots. *)
  let m = Model.create () in
  let x = Model.add_var ~obj:(-1.) ~ub:3. m in
  let module M = Flowsched_obs.Metrics in
  let before = M.snapshot () in
  let r = Simplex.solve_or_fail m in
  check_close "objective" (-3.) r.Simplex.objective;
  check_close "x at bound" 3. r.Simplex.values.(x);
  Alcotest.(check int) "no pivots" 0 r.Simplex.iterations;
  Alcotest.(check bool) "flip counted" true
    (M.counter_in (M.diff (M.snapshot ()) before) "simplex.bound_flips" >= 1)

let test_bounded_infeasible_vs_row () =
  (* x >= 5 but x <= 2 declared: phase 1 cannot reach feasibility. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:2. m in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 5.);
  let r = Simplex.solve m in
  Alcotest.(check bool) "infeasible" true (r.Simplex.status = Simplex.Infeasible)

let test_bounded_zero_upper () =
  (* ub = 0 pins the variable: min -x -2y, x+y <= 3, x <= 0  =>  y=3 *)
  let m = Model.create () in
  let x = Model.add_var ~obj:(-1.) ~ub:0. m in
  let y = Model.add_var ~obj:(-2.) m in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 3.);
  let r = Simplex.solve_or_fail m in
  check_close "objective" (-6.) r.Simplex.objective;
  check_close "x pinned at 0" 0. r.Simplex.values.(x);
  check_close "y takes the row" 3. r.Simplex.values.(y)

let test_bounded_nonbinding_matches_unbounded () =
  (* A loose declared bound must not change the optimum. *)
  let build ub =
    let m = Model.create () in
    let x = Model.add_var ~obj:(-2.) ?ub m in
    let y = Model.add_var ~obj:(-3.) m in
    ignore (Model.add_constraint m [ (x, 2.); (y, 1.) ] Model.Le 8.);
    ignore (Model.add_constraint m [ (x, 1.); (y, 3.) ] Model.Le 9.);
    Simplex.solve_or_fail m
  in
  let free = build None and loose = build (Some 1000.) in
  check_close "same objective" free.Simplex.objective loose.Simplex.objective;
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "value %d" i) v loose.Simplex.values.(i))
    free.Simplex.values

(* Declared bounds vs the same bounds written as explicit Le rows: identical
   objectives on random bounded LPs (the formulations' vertex sets match). *)
let build_bounded_lp ~declared (seed, n, rows) =
  let g = Flowsched_util.Prng.create (seed + 71) in
  let m = Model.create () in
  let ubs = Array.init n (fun _ -> float_of_int (1 + Flowsched_util.Prng.int g 5)) in
  let vars =
    Array.init n (fun i ->
        let obj = float_of_int (Flowsched_util.Prng.int g 7 - 3) in
        if declared then Model.add_var ~obj ~ub:ubs.(i) m else Model.add_var ~obj m)
  in
  if not declared then
    Array.iteri (fun i v -> ignore (Model.add_constraint m [ (v, 1.) ] Model.Le ubs.(i))) vars;
  for _ = 1 to rows do
    let terms = ref [] in
    Array.iter
      (fun v ->
        let c = Flowsched_util.Prng.int g 4 in
        if c > 0 then terms := (v, float_of_int c) :: !terms)
      vars;
    if !terms <> [] then begin
      let sense = if Flowsched_util.Prng.int g 4 = 0 then Model.Ge else Model.Le in
      ignore (Model.add_constraint m !terms sense (float_of_int (2 + Flowsched_util.Prng.int g 9)))
    end
  done;
  m

let prop_declared_bounds_match_rows =
  QCheck2.Test.make ~name:"declared upper bounds = explicit Le rows" ~count:300
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 6) (int_range 0 5))
    (fun params ->
      let a = Simplex.solve (build_bounded_lp ~declared:true params) in
      let b = Simplex.solve (build_bounded_lp ~declared:false params) in
      a.Simplex.status = b.Simplex.status
      && (a.Simplex.status <> Simplex.Optimal
         || abs_float (a.Simplex.objective -. b.Simplex.objective) <= 1e-6))

let prop_warm_matches_cold =
  (* The basis of a cold solve, fed back as a warm start, must reproduce
     status and objective exactly (mixed senses exercise the phase-1 skip
     and the feasibility-preserving crash). *)
  QCheck2.Test.make ~name:"warm solve with cold basis = cold solve" ~count:200
    gen_random_lp_for_reference (fun params ->
      let m = build_mixed_lp params in
      let cold = Simplex.solve m in
      match cold.Simplex.status with
      | Simplex.Optimal ->
          let warm = Simplex.solve ~warm:(Array.to_list cold.Simplex.basis) m in
          warm.Simplex.status = Simplex.Optimal
          && abs_float (warm.Simplex.objective -. cold.Simplex.objective) <= 1e-6
          && warm.Simplex.iterations <= cold.Simplex.iterations
      | _ -> true)

let prop_warm_garbage_basis_is_safe =
  (* An arbitrary (wrong, partly out-of-range) warm basis must never change
     the answer: unusable bases fall back to the cold start. *)
  QCheck2.Test.make ~name:"garbage warm basis falls back safely" ~count:200
    gen_random_lp_for_reference (fun params ->
      let m = build_mixed_lp params in
      let cold = Simplex.solve m in
      let garbage =
        [
          Simplex.Basic_var 0;
          Simplex.Basic_var (Model.num_vars m - 1);
          Simplex.Basic_var 9999;
          Simplex.Basic_slack 0;
          Simplex.Basic_slack (Model.num_rows m - 1);
          Simplex.Basic_slack 9999;
        ]
      in
      let warm = Simplex.solve ~warm:garbage m in
      warm.Simplex.status = cold.Simplex.status
      && (cold.Simplex.status <> Simplex.Optimal
         || abs_float (warm.Simplex.objective -. cold.Simplex.objective) <= 1e-6))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_random_feasible_lp_optimal;
        prop_random_lp_with_demands;
        prop_scaling_invariance;
        prop_matches_reference_solver;
        prop_sparse_lu_matches_dense;
        prop_sparse_lu_matches_reference;
        prop_declared_bounds_match_rows;
        prop_warm_matches_cold;
        prop_warm_garbage_basis_is_safe;
      ]
  in
  Alcotest.run "flowsched_lp"
    [
      ( "model",
        [
          Alcotest.test_case "basic construction" `Quick test_model_basic;
          Alcotest.test_case "merges duplicate terms" `Quick test_model_merges_duplicate_terms;
          Alcotest.test_case "rejects unknown vars" `Quick test_model_rejects_unknown_var;
          Alcotest.test_case "is_feasible" `Quick test_model_is_feasible;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "simple Le" `Quick test_simplex_simple_le;
          Alcotest.test_case "Ge rows (phase 1)" `Quick test_simplex_ge_rows;
          Alcotest.test_case "Eq rows" `Quick test_simplex_eq_rows;
          Alcotest.test_case "negative rhs normalization" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "no rows" `Quick test_simplex_no_rows;
          Alcotest.test_case "redundant equalities" `Quick test_simplex_redundant_equalities;
          Alcotest.test_case "degenerate vertices" `Quick test_simplex_degenerate;
          Alcotest.test_case "vertex support bound" `Quick test_simplex_vertex_property;
          Alcotest.test_case "strong duality" `Quick test_simplex_duals_weak_duality;
          Alcotest.test_case "solution feasibility" `Quick test_simplex_solution_feasible;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "same-model re-solve" `Quick test_warm_resolve_same_model;
          Alcotest.test_case "basis shape" `Quick test_warm_basis_shape;
          Alcotest.test_case "counters accounting" `Quick test_counters_accounting;
          Alcotest.test_case "phase time is per-domain wall time" `Quick
            test_phase_time_is_per_domain_wall_time;
        ] );
      ( "sparse-lu",
        [
          Alcotest.test_case "singular: zero column" `Quick test_sparse_lu_singular_zero_column;
          Alcotest.test_case "singular: duplicate columns" `Quick
            test_sparse_lu_singular_duplicate_column;
          Alcotest.test_case "identity and permutation" `Quick
            test_sparse_lu_identity_and_permutation;
          Alcotest.test_case "singular candidate keeps live factors" `Quick
            test_sparse_lu_singular_keeps_live;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "binding upper bound" `Quick test_bounded_binding_upper;
          Alcotest.test_case "pure bound flip, no rows" `Quick test_bounded_pure_flip_no_rows;
          Alcotest.test_case "bound conflicts with Ge row" `Quick test_bounded_infeasible_vs_row;
          Alcotest.test_case "zero upper bound pins variable" `Quick test_bounded_zero_upper;
          Alcotest.test_case "loose bound changes nothing" `Quick
            test_bounded_nonbinding_matches_unbounded;
        ] );
      ( "stress",
        [
          Alcotest.test_case "Klee-Minty cube" `Quick test_klee_minty;
          Alcotest.test_case "Beale cycling" `Quick test_beale_cycling;
          Alcotest.test_case "iteration limit" `Quick test_iteration_limit_raises;
          Alcotest.test_case "solve leaves model unchanged" `Quick test_solve_leaves_model_unchanged;
        ] );
      ("properties", props);
    ]
