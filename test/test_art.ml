(* Tests for the FS-ART pipeline: LP (1)-(4) and Lemma 3.1's lower bound,
   the iterative rounding of Lemma 3.3 from LP (5)-(8), and Theorem 1's
   conversion to a valid resource-augmented schedule. *)

open Flowsched_switch
open Flowsched_core

let mk ?cap_in ?cap_out ~m specs = Instance.of_flows ?cap_in ?cap_out ~m ~m':m specs

let tiny_instance seed ~m ~n ~maxrel =
  let g = Flowsched_util.Prng.create seed in
  mk ~m
    (List.init n (fun _ ->
         ( Flowsched_util.Prng.int g m,
           Flowsched_util.Prng.int g m,
           1,
           Flowsched_util.Prng.int g (maxrel + 1) )))

(* Port capacities 1-3 and demands up to kappa: greedy max-card packs these
   FIFO (dmax > 1), and the LP's objective has non-unit 1/(2 kappa) terms. *)
let tiny_capacitated seed ~m ~n ~maxrel =
  let g = Flowsched_util.Prng.create seed in
  let int lo hi = lo + Flowsched_util.Prng.int g (hi - lo + 1) in
  let cap_in = Array.init m (fun _ -> int 1 3) in
  let cap_out = Array.init m (fun _ -> int 1 3) in
  mk ~cap_in ~cap_out ~m
    (List.init n (fun _ ->
         let src = int 0 (m - 1) and dst = int 0 (m - 1) in
         (src, dst, int 1 (min cap_in.(src) cap_out.(dst)), int 0 maxrel)))

let cold_optimum ?horizon inst =
  (Flowsched_lp.Simplex.solve_or_fail (Art_lp.build_round_lp ?horizon inst).Art_lp.model)
    .Flowsched_lp.Simplex.objective

let close_rel a b = abs_float (a -. b) <= 1e-9 *. Float.max 1. (abs_float b)

(* --- LP construction --- *)

let test_default_horizon () =
  (* 3 unit flows on the same port pair, all released at 2: horizon must
     cover 2 + 3 rounds of draining. *)
  let inst = mk ~m:1 [ (0, 0, 1, 2); (0, 0, 1, 2); (0, 0, 1, 2) ] in
  Alcotest.(check bool) "covers drain" true (Art_lp.default_horizon inst >= 5)

let test_round_lp_variables () =
  let inst = mk ~m:2 [ (0, 1, 1, 3) ] in
  let built = Art_lp.build_round_lp inst in
  Alcotest.(check bool) "no var before release" true (built.Art_lp.var 0 2 = None);
  Alcotest.(check bool) "var at release" true (built.Art_lp.var 0 3 <> None);
  Alcotest.(check bool) "var list ordered" true
    (let rounds = List.map fst built.Art_lp.vars_of_flow.(0) in
     rounds = List.sort compare rounds && List.hd rounds = 3)

let test_lower_bound_single_flow () =
  (* One unit flow: the fractional response is (0 - 0)/1 + 1/2 = 0.5. *)
  let inst = mk ~m:1 [ (0, 0, 1, 0) ] in
  let bound = Art_lp.lower_bound inst in
  Alcotest.(check (float 1e-6)) "Delta_e of a lone flow" 0.5 bound.Art_lp.total

let test_lower_bound_contention () =
  (* k flows on one unit port pair: fractional optimum is sum_{t<k} (t+1/2)
     = k^2/2. *)
  let k = 4 in
  let inst = mk ~m:1 (List.init k (fun _ -> (0, 0, 1, 0))) in
  let bound = Art_lp.lower_bound inst in
  Alcotest.(check (float 1e-6)) "k^2/2" (float_of_int (k * k) /. 2.) bound.Art_lp.total

let test_lower_bound_respects_capacity () =
  (* Same contention but capacity 2: flows drain twice as fast. *)
  let inst =
    mk ~cap_in:[| 2 |] ~cap_out:[| 2 |] ~m:1 (List.init 4 (fun _ -> (0, 0, 1, 0)))
  in
  let bound = Art_lp.lower_bound inst in
  (* kappa = 2 so the additive term is 1/(2*2); two flows per round for two
     rounds: 2*(0 + 1/4) + 2*(1 + 1/4) = 3 *)
  Alcotest.(check (float 1e-6)) "capacity-2 drain" 3. bound.Art_lp.total

(* LP (5)-(8), which Iterative_rounding solves as its LP(0), aggregates
   capacity over 4-round windows; with unit capacities its objective term
   1/2 is LP (1)-(4)'s 1/(2 kappa_e), so its optimum is at most LP
   (1)-(4)'s. *)
let prop_interval_lp_relaxes_round_lp =
  QCheck2.Test.make ~name:"interval LP relaxes round LP" ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 16))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let _, diag = Iterative_rounding.run inst in
      diag.Iterative_rounding.lp_objective <= (Art_lp.lower_bound inst).Art_lp.total +. 1e-6)

let prop_declared_ub_matches_explicit_rows =
  (* Declared per-variable bounds b_{e,t} <= d_e vs the same bounds as
     explicit Le rows: both describe the same polytope, so the optima must
     coincide, on unit instances and where d_e goes above 1. *)
  QCheck2.Test.make ~name:"Art_lp declared ubs = explicit rows" ~count:30
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let solve model =
        (Flowsched_lp.Simplex.solve_or_fail model).Flowsched_lp.Simplex.objective
      in
      List.for_all
        (fun inst ->
          let model = (Art_lp.build_round_lp inst).Art_lp.model in
          abs_float (solve model -. solve (Reference.with_bound_rows model)) <= 1e-6)
        [
          tiny_instance seed ~m ~n ~maxrel:3;
          tiny_capacitated seed ~m ~n ~maxrel:3;
          Reference.capacitated_instance seed;
        ])

let test_weighted_bound_uniform_weights () =
  (* weight 1 everywhere must reproduce the unweighted bound *)
  let inst = tiny_instance 19 ~m:3 ~n:8 ~maxrel:2 in
  let w = Array.make (Instance.n inst) 1. in
  let b0 = Art_lp.lower_bound inst in
  let b1 = Art_lp.weighted_lower_bound inst ~weights:w in
  Alcotest.(check (float 1e-6)) "same optimum" b0.Art_lp.total b1.Art_lp.total

let test_weighted_bound_prioritizes () =
  (* two flows on one unit port pair; the heavy flow should be served first
     in the fractional optimum, so its fractional response stays at 1/2 *)
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0) ] in
  let b = Art_lp.weighted_lower_bound inst ~weights:[| 10.; 1. |] in
  (* fractional values carry the weight factor; per unit weight the heavy
     flow finishes first *)
  Alcotest.(check bool) "heavy flow first" true
    (b.Art_lp.fractional.(0) /. 10. < b.Art_lp.fractional.(1));
  (* optimum: 10*(1/2) + 1*(1 + 1/2) = 6.5 *)
  Alcotest.(check (float 1e-6)) "weighted optimum" 6.5 b.Art_lp.total

let test_weighted_bound_validation () =
  let inst = mk ~m:1 [ (0, 0, 1, 0) ] in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Art_lp.weighted_lower_bound: negative weight") (fun () ->
      ignore (Art_lp.weighted_lower_bound inst ~weights:[| -1. |]));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Art_lp.weighted_lower_bound: one weight per flow") (fun () ->
      ignore (Art_lp.weighted_lower_bound inst ~weights:[||]))

let prop_weighted_bound_below_schedules =
  QCheck2.Test.make ~name:"weighted LP bound <= weighted cost of FIFO" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 15))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let g = Flowsched_util.Prng.create (seed + 3) in
      let weights =
        Array.init n (fun _ -> float_of_int (Flowsched_util.Prng.int g 5))
      in
      let fifo = Baselines.fifo inst in
      let horizon = max (Art_lp.default_horizon inst) (Schedule.makespan fifo) in
      let bound = Art_lp.weighted_lower_bound ~horizon inst ~weights in
      bound.Art_lp.total
      <= Schedule.weighted_total_response inst ~weights fifo +. 1e-6)

let prop_lp_bounds_exact_optimum =
  QCheck2.Test.make ~name:"LP (1)-(4) lower bounds the exact optimum" ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 1 6))
    (fun (seed, m, n) ->
      List.for_all
        (fun inst ->
          let bound = Art_lp.lower_bound inst in
          let exact, _ = Exact.min_total_response inst in
          bound.Art_lp.total <= float_of_int exact +. 1e-6)
        [ tiny_instance seed ~m ~n ~maxrel:2; tiny_capacitated seed ~m ~n ~maxrel:2 ])

(* The crash start moves only the pivot path: the optimum it reaches is the
   cold solve's, and it passed its D(u) check on the way out. *)
let prop_crash_start_matches_cold =
  QCheck2.Test.make ~name:"LP (1)-(4) crash start = cold solve" ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 1 25))
    (fun (seed, m, n) ->
      List.for_all
        (fun inst ->
          let bound = Art_lp.lower_bound inst in
          close_rel bound.Art_lp.total (cold_optimum inst)
          && close_rel bound.Art_lp.dual_bound bound.Art_lp.total)
        [ tiny_instance seed ~m ~n ~maxrel:4; Reference.capacitated_instance seed ])

(* Weak duality: D(u) <= the optimum for every u >= 0.  At the multipliers
   read off a cold solve's own duals it meets the optimum. *)
let prop_dual_bound_duality =
  QCheck2.Test.make ~name:"Art_lp.dual_bound: <= optimum, = at its duals" ~count:100
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 2))
    (fun (seed, scale) ->
      let inst = Reference.capacitated_instance seed in
      let g = Flowsched_util.Prng.create (seed + 1) in
      let built = Art_lp.build_round_lp inst in
      let u =
        Array.init (Flowsched_lp.Model.num_rows built.Art_lp.model) (fun _ ->
            if Flowsched_util.Prng.bool g then 0.
            else float_of_int scale *. Flowsched_util.Prng.float g)
      in
      let res = Flowsched_lp.Simplex.solve_or_fail built.Art_lp.model in
      let opt = res.Flowsched_lp.Simplex.objective in
      let u_star = Array.map (fun y -> Float.max 0. (-.y)) res.Flowsched_lp.Simplex.duals in
      Art_lp.dual_bound built u <= opt +. 1e-9 && close_rel (Art_lp.dual_bound built u_star) opt)

let test_dual_bound_zero_multipliers () =
  (* u = 0 leaves every flow at its release round, so D(0) is
     sum_e d_e / (2 kappa_e): n/2 on a unit instance. *)
  let inst = tiny_instance 3 ~m:3 ~n:9 ~maxrel:2 in
  let built = Art_lp.build_round_lp inst in
  let u = Array.make (Flowsched_lp.Model.num_rows built.Art_lp.model) 0. in
  Alcotest.(check (float 1e-12)) "D(0) = n/2" 4.5 (Art_lp.dual_bound built u);
  u.(built.Art_lp.cap_rows_in.(inst.Instance.flows.(0).Flow.src).(0)) <- -1.;
  Alcotest.check_raises "negative multiplier"
    (Invalid_argument "Art_lp.dual_bound: negative capacity multiplier") (fun () ->
      ignore (Art_lp.dual_bound built u))

let test_short_horizon_falls_back () =
  (* Three demand-2 flows on one capacity-3 port pair: greedy max-card packs
     them one per round (makespan 3), while the LP fits them into 2 rounds.
     At horizon 2 the last flow has no column for its start; the solve must
     still reach the cold optimum, 6 * 1/6 + 3 * 1/2 = 2.5. *)
  let inst =
    mk ~cap_in:[| 3 |] ~cap_out:[| 3 |] ~m:1 [ (0, 0, 2, 0); (0, 0, 2, 0); (0, 0, 2, 0) ]
  in
  Alcotest.(check int) "greedy makespan" 3 (Schedule.makespan (Baselines.greedy_maxcard inst));
  let bound = Art_lp.lower_bound ~horizon:2 inst in
  Alcotest.(check (float 1e-9)) "cold optimum" (cold_optimum ~horizon:2 inst) bound.Art_lp.total;
  Alcotest.(check (float 1e-9)) "2.5" 2.5 bound.Art_lp.total

let prop_lp_bound_below_fifo =
  QCheck2.Test.make ~name:"LP bound <= FIFO upper bound" ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 1 25))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:4 in
      let fifo = Baselines.fifo inst in
      let horizon =
        max (Art_lp.default_horizon inst) (Schedule.makespan fifo)
      in
      let bound = Art_lp.lower_bound ~horizon inst in
      Schedule.is_valid inst fifo
      && bound.Art_lp.total <= float_of_int (Schedule.total_response inst fifo) +. 1e-6)

(* --- iterative rounding --- *)

let test_rounding_completes () =
  let inst = tiny_instance 11 ~m:3 ~n:14 ~maxrel:3 in
  let pseudo, diag = Iterative_rounding.run inst in
  Alcotest.(check bool) "all flows assigned" true (Schedule.is_complete pseudo);
  Alcotest.(check bool) "no forced fixes" true (diag.Iterative_rounding.forced = 0);
  (* each flow sits at or after its release *)
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "release respected" true
        (Schedule.round_of pseudo f.Flow.id >= f.Flow.release))
    inst.Instance.flows

let test_rounding_multi_iteration_path () =
  (* dense enough that LP(0) leaves fractional flows: the interval
     regrouping of iteration >= 1 must run and still satisfy the chain *)
  let inst = Flowsched_sim.Workload.uniform_total ~m:3 ~n:60 ~max_release:2 ~seed:6 in
  let pseudo, diag = Iterative_rounding.run inst in
  Alcotest.(check bool) "regrouping exercised" true (diag.Iterative_rounding.iterations >= 2);
  Alcotest.(check bool) "still no forced fixes" true (diag.Iterative_rounding.forced = 0);
  Alcotest.(check bool) "complete" true (Schedule.is_complete pseudo);
  Alcotest.(check bool) "cost chain" true
    (diag.Iterative_rounding.assignment_cost <= diag.Iterative_rounding.lp_objective +. 1e-5)

let test_rounding_cost_dominated_by_lp () =
  let inst = tiny_instance 13 ~m:3 ~n:16 ~maxrel:4 in
  let _, diag = Iterative_rounding.run inst in
  Alcotest.(check bool) "assignment cost <= LP(0) optimum" true
    (diag.Iterative_rounding.assignment_cost <= diag.Iterative_rounding.lp_objective +. 1e-5)

let prop_rounding_invariants =
  QCheck2.Test.make ~name:"iterative rounding: cost chain + backlog bound" ~count:30
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 20))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:4 in
      let pseudo, diag = Iterative_rounding.run inst in
      let cmax =
        Array.fold_left max 0 inst.Instance.cap_in
        |> max (Array.fold_left max 0 inst.Instance.cap_out)
      in
      Schedule.is_complete pseudo
      && diag.Iterative_rounding.forced = 0
      && diag.Iterative_rounding.assignment_cost
         <= diag.Iterative_rounding.lp_objective +. 1e-5
      (* Lemma 3.7: Vol <= c(t2-t1) + 4c + 10c*iterations *)
      && diag.Iterative_rounding.backlog
         <= cmax * (4 + (10 * diag.Iterative_rounding.iterations)))

let prop_rounding_iterations_logarithmic =
  QCheck2.Test.make ~name:"iterative rounding: O(log n) LP solves" ~count:20
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 32))
    (fun (seed, n) ->
      let inst = tiny_instance seed ~m:3 ~n ~maxrel:4 in
      let _, diag = Iterative_rounding.run inst in
      (* Lemma 3.5 gives ceil(log2 n) + 1; allow +2 slack for degenerate
         vertices *)
      let log2n = int_of_float (ceil (log (float_of_int n) /. log 2.)) in
      diag.Iterative_rounding.iterations <= log2n + 3)

(* Offline-pipeline instances of 6-60 unit flows (poisson, uniform and
   skewed generators); the first is the bench-smoke sweep cell. *)
let pipeline_cells =
  let module W = Flowsched_sim.Workload in
  [
    ("poisson m=4 rate=2 T=4 s=1", W.poisson ~m:4 ~rate:2.0 ~rounds:4 ~seed:1);
    ("poisson m=4 rate=2 T=4 s=2", W.poisson ~m:4 ~rate:2.0 ~rounds:4 ~seed:2);
    ("poisson m=6 rate=4 T=6 s=3", W.poisson ~m:6 ~rate:4.0 ~rounds:6 ~seed:3);
    ("uniform m=4 n=24", W.uniform_total ~m:4 ~n:24 ~max_release:6 ~seed:41);
    ("uniform m=3 n=60", W.uniform_total ~m:3 ~n:60 ~max_release:8 ~seed:1);
    ("skewed m=5 rate=2 T=6", W.skewed ~m:5 ~rate:2.0 ~rounds:6 ~alpha:1.0 ~seed:7);
  ]

let test_rounding_warm_matches_cold () =
  (* Warm-started iterative rounding must reproduce the cold-start schedule
     and LP(0) objective, and spend strictly fewer simplex pivots on a
     multi-iteration run. *)
  let module M = Flowsched_obs.Metrics in
  let run ~warm_start inst =
    let before = M.snapshot () in
    let s, d = Iterative_rounding.run ~warm_start inst in
    (s, d, M.counter_in (M.diff (M.snapshot ()) before) "simplex.pivots")
  in
  let same ~tol label inst =
    let s_cold, d_cold, cold_pivots = run ~warm_start:false inst in
    let s_warm, d_warm, warm_pivots = run ~warm_start:true inst in
    Alcotest.(check (array int)) (label ^ ": identical schedules")
      (Schedule.assignment s_cold) (Schedule.assignment s_warm);
    Alcotest.(check bool) (label ^ ": identical LP(0) objective") true
      (abs_float
         (d_cold.Iterative_rounding.lp_objective -. d_warm.Iterative_rounding.lp_objective)
      <= tol);
    (d_cold, cold_pivots, warm_pivots)
  in
  let inst = Flowsched_sim.Workload.uniform_total ~m:3 ~n:60 ~max_release:2 ~seed:6 in
  let d_cold, cold_pivots, warm_pivots = same ~tol:1e-9 "uniform m=3 n=60 T=2" inst in
  Alcotest.(check bool) "multi-iteration run" true (d_cold.Iterative_rounding.iterations >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer pivots (%d < %d)" warm_pivots cold_pivots)
    true
    (warm_pivots < cold_pivots);
  List.iter (fun (label, inst) -> ignore (same ~tol:1e-6 label inst)) pipeline_cells

(* --- Theorem 1 end to end --- *)

let test_theorem1_validity () =
  let inst = tiny_instance 17 ~m:3 ~n:18 ~maxrel:4 in
  let res = Art_scheduler.solve ~c:1 inst in
  Alcotest.(check bool) "valid under (1+c) capacities" true
    (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
  Alcotest.(check (array int)) "augmented caps are 2x" [| 2; 2; 2 |]
    res.Art_scheduler.augmented.Instance.cap_in;
  Alcotest.(check bool) "lp bound below result" true
    (res.Art_scheduler.lp_total
    <= float_of_int res.Art_scheduler.total_response +. 1e-6)

let test_theorem1_rejects_nonunit () =
  let inst = mk ~cap_in:[| 2 |] ~cap_out:[| 2 |] ~m:1 [ (0, 0, 2, 0) ] in
  Alcotest.check_raises "non-unit demand"
    (Invalid_argument "Art_scheduler.solve: Theorem 1 requires unit demands") (fun () ->
      ignore (Art_scheduler.solve inst))

let test_theorem1_rejects_bad_c () =
  let inst = mk ~m:1 [ (0, 0, 1, 0) ] in
  Alcotest.check_raises "c = 0"
    (Invalid_argument "Art_scheduler.solve: c must be a positive integer") (fun () ->
      ignore (Art_scheduler.solve ~c:0 inst))

let prop_theorem1_guarantees =
  QCheck2.Test.make ~name:"Theorem 1: valid schedule, bounded response" ~count:25
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 2 4) (int_range 1 24) (int_range 1 3))
    (fun (seed, m, n, c) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let res = Art_scheduler.solve ~c inst in
      let d = res.Art_scheduler.diagnostics in
      Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule
      (* every flow delayed at most h + d + spill beyond its pseudo cost *)
      && res.Art_scheduler.total_response
         <= int_of_float (ceil d.Art_scheduler.rounding.Iterative_rounding.assignment_cost)
            + (n
              * (d.Art_scheduler.h + d.Art_scheduler.max_classes
                + d.Art_scheduler.spill_rounds + 1))
      && res.Art_scheduler.lp_total
         <= float_of_int res.Art_scheduler.total_response +. 1e-6)

let test_greedy_ablation_valid () =
  let inst = tiny_instance 37 ~m:3 ~n:20 ~maxrel:4 in
  let res = Art_scheduler.solve_greedy ~c:1 inst in
  Alcotest.(check bool) "valid under (1+c) capacities" true
    (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
  Alcotest.(check bool) "no LP was solved" true (Float.is_nan res.Art_scheduler.lp_total);
  Alcotest.(check int) "zero LP iterations" 0
    res.Art_scheduler.diagnostics.Art_scheduler.rounding.Iterative_rounding.iterations

let prop_greedy_ablation_valid =
  QCheck2.Test.make ~name:"greedy ablation: always valid, completes" ~count:25
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 30))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:4 in
      let res = Art_scheduler.solve_greedy ~c:2 inst in
      Schedule.is_complete res.Art_scheduler.schedule
      && Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule)

let prop_theorem1_larger_c_smaller_h =
  QCheck2.Test.make ~name:"Theorem 1: larger c never increases block length" ~count:15
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 6 20))
    (fun (seed, n) ->
      let inst = tiny_instance seed ~m:3 ~n ~maxrel:3 in
      let r1 = Art_scheduler.solve ~c:1 inst in
      let r4 = Art_scheduler.solve ~c:4 inst in
      r4.Art_scheduler.diagnostics.Art_scheduler.h
      <= r1.Art_scheduler.diagnostics.Art_scheduler.h)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_declared_ub_matches_explicit_rows;
        prop_weighted_bound_below_schedules;
        prop_lp_bounds_exact_optimum;
        prop_crash_start_matches_cold;
        prop_dual_bound_duality;
        prop_lp_bound_below_fifo;
        prop_rounding_invariants;
        prop_rounding_iterations_logarithmic;
        prop_theorem1_guarantees;
        prop_greedy_ablation_valid;
        prop_theorem1_larger_c_smaller_h;
      ]
  in
  Alcotest.run "flowsched_art"
    [
      ( "lp",
        [
          Alcotest.test_case "default horizon" `Quick test_default_horizon;
          Alcotest.test_case "variable layout" `Quick test_round_lp_variables;
          Alcotest.test_case "single flow bound" `Quick test_lower_bound_single_flow;
          Alcotest.test_case "contention bound" `Quick test_lower_bound_contention;
          Alcotest.test_case "capacity-aware bound" `Quick test_lower_bound_respects_capacity;
          QCheck_alcotest.to_alcotest prop_interval_lp_relaxes_round_lp;
          Alcotest.test_case "weighted bound: uniform weights" `Quick test_weighted_bound_uniform_weights;
          Alcotest.test_case "weighted bound: prioritizes heavy" `Quick test_weighted_bound_prioritizes;
          Alcotest.test_case "weighted bound: validation" `Quick test_weighted_bound_validation;
          Alcotest.test_case "dual bound at u = 0" `Quick test_dual_bound_zero_multipliers;
          Alcotest.test_case "short horizon: start falls back" `Quick test_short_horizon_falls_back;
        ] );
      ( "iterative-rounding",
        [
          Alcotest.test_case "completes integrally" `Quick test_rounding_completes;
          Alcotest.test_case "multi-iteration regrouping" `Quick test_rounding_multi_iteration_path;
          Alcotest.test_case "cost below LP optimum" `Quick test_rounding_cost_dominated_by_lp;
          Alcotest.test_case "warm start matches cold" `Quick test_rounding_warm_matches_cold;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "validity" `Quick test_theorem1_validity;
          Alcotest.test_case "rejects non-unit demands" `Quick test_theorem1_rejects_nonunit;
          Alcotest.test_case "rejects bad c" `Quick test_theorem1_rejects_bad_c;
          Alcotest.test_case "greedy ablation" `Quick test_greedy_ablation_valid;
        ] );
      ("properties", props);
    ]
