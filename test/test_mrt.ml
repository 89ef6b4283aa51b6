(* Tests for the FS-MRT pipeline: LP (19)-(21), the Lemma 4.3-style
   rounding, the binary-search solver and its bracket, and the deadline
   model of Remark 4.2. *)

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

let demand_instance seed ~m ~n ~maxrel ~max_demand =
  let g = Flowsched_util.Prng.create seed in
  mk
    ~cap_in:(Array.make m max_demand)
    ~cap_out:(Array.make m max_demand)
    ~m
    (List.init n (fun _ ->
         ( Flowsched_util.Prng.int g m,
           Flowsched_util.Prng.int g m,
           1 + Flowsched_util.Prng.int g max_demand,
           Flowsched_util.Prng.int g (maxrel + 1) )))

(* --- active-round helpers --- *)

let test_active_of_rho () =
  let inst = mk ~m:1 [ (0, 0, 1, 2) ] in
  Alcotest.(check (list int)) "window" [ 2; 3; 4 ] (Mrt_lp.active_of_rho inst 3 0);
  Alcotest.check_raises "rho 0" (Invalid_argument "Mrt_lp.active_of_rho: rho must be >= 1")
    (fun () ->
      let (_ : Mrt_lp.active) = Mrt_lp.active_of_rho inst 0 in
      ())

let test_active_of_deadlines () =
  let inst = mk ~m:1 [ (0, 0, 1, 2) ] in
  Alcotest.(check (list int)) "inclusive deadline" [ 2; 3 ]
    (Mrt_lp.active_of_deadlines inst [| 3 |] 0);
  let bad = Mrt_lp.active_of_deadlines inst [| 1 |] in
  Alcotest.check_raises "deadline before release"
    (Invalid_argument "Mrt_lp.active_of_deadlines: deadline before release") (fun () ->
      ignore (bad 0))

(* --- LP feasibility --- *)

let test_lp_feasibility_basic () =
  (* 2 flows on one unit port pair: rho=1 infeasible, rho=2 feasible. *)
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check bool) "rho=1 infeasible" false (Mrt_scheduler.feasible_rho inst 1);
  Alcotest.(check bool) "rho=2 feasible" true (Mrt_scheduler.feasible_rho inst 2);
  Alcotest.(check int) "binary search" 2 (Mrt_scheduler.min_fractional_rho inst)

let test_lp_fractional_below_integral () =
  (* 3 unit flows pairwise sharing ports (triangle-ish): fractional can be
     strictly below integral.  inputs {0,1}, outputs {0,1}:
     (0,0),(0,1),(1,0) all released at 0: integral needs rho=2;
     fractional: each 1/... port 0-in carries 2 flows -> fractional rho 2 as
     well; just assert frac <= exact. *)
  let inst = mk ~m:2 [ (0, 0, 1, 0); (0, 1, 1, 0); (1, 0, 1, 0) ] in
  let frac = Mrt_scheduler.min_fractional_rho inst in
  match Exact.min_max_response inst with
  | Some (exact, _) -> Alcotest.(check bool) "frac <= exact" true (frac <= exact)
  | None -> Alcotest.fail "exact solver found no schedule"

let prop_fractional_rho_lower_bounds_exact =
  QCheck2.Test.make ~name:"min fractional rho <= exact optimum" ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 1 6))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:2 in
      let frac = Mrt_scheduler.min_fractional_rho inst in
      match Exact.min_max_response inst with
      | Some (exact, _) -> frac <= exact
      | None -> false)

let prop_feasibility_monotone =
  QCheck2.Test.make ~name:"LP feasibility monotone in rho" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      Mrt_scheduler.feasible_rho inst rho
      && Mrt_scheduler.feasible_rho inst (rho + 1)
      && ((rho = 1) || not (Mrt_scheduler.feasible_rho inst (rho - 1))))

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

let test_reference_bisection_warm_matches_cold () =
  (* The plain bisection of test/reference.ml still chains the library's
     Mrt_lp.solve ?warm across shrinking active sets: basis reuse must not
     change the answer (feasibility of each probe LP is vertex-independent)
     and must strictly reduce the total pivot count.  The library's
     bracketed search must agree with both. *)
  let module M = Flowsched_obs.Metrics in
  let search ~warm_start inst =
    let before = M.snapshot () in
    let rho = Reference.plain_min_fractional_rho ~warm_start inst in
    (rho, M.counter_in (M.diff (M.snapshot ()) before) "simplex.pivots")
  in
  let inst = tiny_instance 71 ~m:4 ~n:24 ~maxrel:4 in
  let rho_cold, cold_pivots = search ~warm_start:false inst in
  let rho_warm, warm_pivots = search ~warm_start:true inst in
  Alcotest.(check int) "identical rho" rho_cold rho_warm;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer pivots (%d < %d)" warm_pivots cold_pivots)
    true
    (warm_pivots < cold_pivots);
  Alcotest.(check int) "bracketed search agrees" rho_cold (Mrt_scheduler.min_fractional_rho inst);
  List.iter
    (fun (label, inst) ->
      let rho_cold = fst (search ~warm_start:false inst) in
      Alcotest.(check int) (label ^ ": identical rho") rho_cold
        (fst (search ~warm_start:true inst));
      Alcotest.(check int) (label ^ ": bracketed search agrees") rho_cold
        (Mrt_scheduler.min_fractional_rho inst))
    pipeline_cells

(* --- the bracket of the rho search --- *)

let counter name = Flowsched_obs.Metrics.(counter_value (counter name))
let probes () = counter "mrt.rho_probes"

let test_bracket_empty () =
  let inst = mk ~m:1 [] in
  Alcotest.(check (pair int int)) "bracket" (1, 1) (Mrt_scheduler.rho_bracket inst);
  Alcotest.(check int) "min rho" 1 (Mrt_scheduler.min_fractional_rho inst);
  Alcotest.(check int) "reference" 1 (Reference.plain_min_fractional_rho inst)

let test_bracket_closed_runs_no_lp () =
  (* Three flows released at 0 and three at 1 on one unit port pair: the
     window [0, 1] carries demand 6, so rho >= 6 - 1; FIFO serves the last
     flow released at 1 in round 5, a response of 5. *)
  let inst = mk ~m:1 (List.init 6 (fun i -> (0, 0, 1, i / 3))) in
  Alcotest.(check (pair int int)) "bracket" (5, 5) (Mrt_scheduler.rho_bracket inst);
  let before = probes () in
  Alcotest.(check int) "min rho" 5 (Mrt_scheduler.min_fractional_rho inst);
  Alcotest.(check int) "no LP probe" before (probes ());
  Alcotest.(check int) "reference" 5 (Reference.plain_min_fractional_rho inst)

let test_bracket_window_capacity () =
  (* Capacity 3 at input 0: demands 2 + 2 + 3 released at 0 need
     ceil(7 / 3) = 3 rounds, and FIFO takes exactly that. *)
  let inst =
    mk ~cap_in:[| 3; 3 |] ~cap_out:[| 3; 3 |] ~m:2 [ (0, 0, 2, 0); (0, 1, 2, 0); (0, 1, 3, 0) ]
  in
  Alcotest.(check (pair int int)) "bracket" (3, 3) (Mrt_scheduler.rho_bracket inst);
  Alcotest.(check int) "min rho" 3 (Mrt_scheduler.min_fractional_rho inst)

let test_bracket_span_args () =
  let module Trace = Flowsched_obs.Trace in
  let inst = mk ~m:1 (List.init 6 (fun i -> (0, 0, 1, i / 3))) in
  Trace.start ();
  ignore (Mrt_scheduler.min_fractional_rho inst);
  Trace.stop ();
  match List.find_opt (fun sp -> sp.Trace.name = "mrt.min_fractional_rho") (Trace.spans ()) with
  | None -> Alcotest.fail "no mrt.min_fractional_rho span"
  | Some sp ->
      Alcotest.(check bool) "lb and ub args" true
        (sp.Trace.args = Flowsched_util.Json.[ ("lb", Int 5); ("ub", Int 5) ])

let test_probe_at_ub_skips_phase1 () =
  (* The instance of the CLI's gap case: window bound 2, FIFO's max response
     3 and rho* = 3.  At rho = ub FIFO serves every flow in time, so its
     rounds are a feasible basis of LP (19)-(21): phase 1 is skipped and
     the zero objective needs no pivot.  Below ub some flow is late and
     phase 1 runs from its artificial. *)
  let inst =
    mk ~cap_in:[| 4; 4; 4 |] ~cap_out:[| 4; 4; 1 |] ~m:3
      [
        (1, 2, 1, 3); (1, 2, 1, 2); (0, 2, 1, 4); (1, 1, 4, 1); (1, 1, 4, 1); (0, 0, 4, 5);
        (1, 1, 4, 3); (2, 1, 4, 4); (1, 0, 1, 3); (2, 2, 1, 5); (0, 2, 1, 4);
      ]
  in
  let lb, ub = Mrt_scheduler.rho_bracket inst in
  Alcotest.(check bool) (Printf.sprintf "lb %d < ub %d" lb ub) true (lb < ub);
  let pivots = counter "simplex.pivots" and skipped = counter "simplex.phase1_skipped" in
  Alcotest.(check bool) "ub feasible" true (Mrt_scheduler.feasible_rho inst ub);
  Alcotest.(check int) "no pivot" pivots (counter "simplex.pivots");
  Alcotest.(check int) "phase 1 skipped" (skipped + 1) (counter "simplex.phase1_skipped");
  let skipped = counter "simplex.phase1_skipped" in
  Alcotest.(check bool) "ub - 1 infeasible" false (Mrt_scheduler.feasible_rho inst (ub - 1));
  Alcotest.(check int) "phase 1 ran below ub" skipped (counter "simplex.phase1_skipped")

let prop_bracket_contains_rho =
  QCheck2.Test.make ~name:"lb <= min fractional rho <= ub" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let inst = Reference.capacitated_instance seed in
      let lb, ub = Mrt_scheduler.rho_bracket inst in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      1 <= lb && lb <= rho && rho <= ub)

let prop_bracketed_matches_plain_bisection =
  QCheck2.Test.make ~name:"bracketed search = plain bisection" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let inst = Reference.capacitated_instance seed in
      Mrt_scheduler.min_fractional_rho inst = Reference.plain_min_fractional_rho inst)

let prop_declared_ub_matches_explicit_rows =
  (* The declared-bound formulation (x_{e,t} <= 1 enforced by the simplex's
     bounded-variable ratio test) must agree with the explicit-row oracle on
     feasibility at every rho around the threshold, and both solutions must
     fully schedule every flow, on unit and capacitated instances. *)
  QCheck2.Test.make ~name:"Mrt_lp declared ubs = explicit rows" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let all_one sums = Array.for_all (fun s -> abs_float (s -. 1.) <= 1e-6) sums in
      List.for_all
        (fun inst ->
          let scheduled frac =
            let sums = Array.make (Instance.n inst) 0. in
            Hashtbl.iter (fun (e, _) v -> sums.(e) <- sums.(e) +. v) frac.Mrt_lp.values;
            sums
          in
          let threshold = Mrt_scheduler.min_fractional_rho inst in
          List.for_all
            (fun rho ->
              let active = Mrt_lp.active_of_rho inst rho in
              match (Mrt_lp.solve inst active, Reference.mrt_lp_with_bound_rows inst active) with
              | None, None -> true
              | Some a, Some b -> all_one (scheduled a) && all_one b
              | _ -> false)
            (List.sort_uniq compare
               (List.filter (fun r -> r >= 1) [ 1; 2; threshold - 1; threshold; threshold + 1 ])))
        [ tiny_instance seed ~m ~n ~maxrel:3; Reference.capacitated_instance seed ])

(* --- rounding --- *)

let test_rounding_simple () =
  let inst = mk ~m:2 [ (0, 0, 1, 0); (0, 1, 1, 0); (1, 0, 1, 0); (1, 1, 1, 0) ] in
  match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst 2) with
  | None -> Alcotest.fail "expected feasible rounding"
  | Some o ->
      Alcotest.(check bool) "complete" true (Schedule.is_complete o.Mrt_rounding.schedule);
      Alcotest.(check bool) "within guarantee" true o.Mrt_rounding.within_guarantee;
      Alcotest.(check int) "unit-demand bound" 1 o.Mrt_rounding.bound;
      Alcotest.(check bool) "respects active rounds" true
        (Schedule.max_response inst o.Mrt_rounding.schedule <= 2)

let test_rounding_infeasible () =
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check bool) "rho=1 cannot fit 3 flows even fractionally" true
    (Mrt_rounding.round inst (Mrt_lp.active_of_rho inst 1) = None)

let prop_rounding_guarantee_unit =
  QCheck2.Test.make ~name:"rounding: response <= rho, overflow <= 1 (unit)" ~count:50
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 2 20))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst rho) with
      | None -> false
      | Some o ->
          Schedule.is_complete o.Mrt_rounding.schedule
          && Schedule.max_response inst o.Mrt_rounding.schedule <= rho
          && o.Mrt_rounding.within_guarantee
          && o.Mrt_rounding.overflow <= 1)

let prop_rounding_guarantee_demands =
  QCheck2.Test.make ~name:"rounding: overflow <= 2 dmax - 1 (general demands)" ~count:40
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 2 4) (int_range 2 12) (int_range 2 4))
    (fun (seed, m, n, max_demand) ->
      let inst = demand_instance seed ~m ~n ~maxrel:3 ~max_demand in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst rho) with
      | None -> false
      | Some o ->
          Schedule.max_response inst o.Mrt_rounding.schedule <= rho
          && o.Mrt_rounding.overflow <= (2 * Instance.dmax inst) - 1)

(* --- solver end to end --- *)

let test_solve_end_to_end () =
  let inst = tiny_instance 23 ~m:3 ~n:12 ~maxrel:3 in
  let sol = Mrt_scheduler.solve inst in
  Alcotest.(check bool) "valid under augmented caps" true
    (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule);
  Alcotest.(check bool) "achieved rho below fractional target" true
    (sol.Mrt_scheduler.rho <= sol.Mrt_scheduler.fractional_rho)

let prop_solve_optimal_wrt_exact =
  (* Theorem 3: with augmentation the solver achieves max response <= the
     UN-augmented exact optimum. *)
  QCheck2.Test.make ~name:"Theorem 3: rho <= exact optimum, valid augmented" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 1 6))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:2 in
      let sol = Mrt_scheduler.solve inst in
      match Exact.min_max_response inst with
      | Some (exact, _) ->
          sol.Mrt_scheduler.rho <= exact
          && Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule
      | None -> false)

let prop_solve_capacitated_guarantee =
  (* The FIFO-started rounding on demands up to kappa_e: whichever vertex
     the start leads to, the schedule keeps Theorem 3's guarantees, and it
     does not depend on whether the search ran in the same call. *)
  QCheck2.Test.make ~name:"Theorem 3 from FIFO's start: valid augmented, rho, 2 dmax - 1"
    ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let inst = Reference.capacitated_instance seed in
      let sol = Mrt_scheduler.solve inst in
      let again = Mrt_scheduler.solve ~rho:sol.Mrt_scheduler.fractional_rho inst in
      Schedule.is_complete sol.Mrt_scheduler.schedule
      && Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule
      && Schedule.max_response inst sol.Mrt_scheduler.schedule
         <= sol.Mrt_scheduler.fractional_rho
      && sol.Mrt_scheduler.rounding.Mrt_rounding.overflow <= (2 * Instance.dmax inst) - 1
      && again.Mrt_scheduler.schedule = sol.Mrt_scheduler.schedule)

let prop_solve_reuses_probe_at_rho =
  (* Below FIFO's max response the search's last feasible probe, made at
     rho*, is the rounding's first LP and is not solved again; the outcome
     must be that of a rounding that solves it itself. *)
  QCheck2.Test.make ~name:"solve = solve ~rho:rho* below FIFO, one LP fewer" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let inst = Reference.capacitated_instance seed in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      QCheck2.assume (rho < snd (Mrt_scheduler.rho_bracket inst));
      let solves = counter "simplex.solves" and probed = probes () in
      let sol = Mrt_scheduler.solve inst in
      let lps = counter "simplex.solves" - solves and probed = probes () - probed in
      sol = Mrt_scheduler.solve ~rho inst
      && lps = probed + sol.Mrt_scheduler.rounding.Mrt_rounding.lp_solves - 1)

(* --- deadlines (Remark 4.2) --- *)

let test_deadlines_feasible () =
  let inst = tiny_instance 29 ~m:3 ~n:10 ~maxrel:2 in
  (* deadlines taken from a serial schedule are always meetable *)
  let base = Instance.last_release inst in
  let deadlines =
    Array.init (Instance.n inst) (fun i -> base + i)
  in
  match Mrt_scheduler.solve_with_deadlines inst ~deadlines with
  | None -> Alcotest.fail "serial deadlines must be feasible"
  | Some sol ->
      Array.iteri
        (fun e d ->
          Alcotest.(check bool) "deadline met" true
            (Schedule.round_of sol.Mrt_scheduler.schedule e <= d))
        deadlines;
      Alcotest.(check bool) "valid under augmented" true
        (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule)

let test_deadlines_infeasible () =
  (* two flows on the same unit port pair cannot both run at round 0 *)
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check bool) "impossible deadlines rejected" true
    (Mrt_scheduler.solve_with_deadlines inst ~deadlines:[| 0; 0 |] = None)

let prop_deadline_schedules_meet_deadlines =
  QCheck2.Test.make ~name:"deadline model: every met or None" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:2 in
      let g = Flowsched_util.Prng.create (seed + 99) in
      let deadlines =
        Array.map
          (fun (f : Flow.t) -> f.Flow.release + Flowsched_util.Prng.int g 4)
          inst.Instance.flows
      in
      match Mrt_scheduler.solve_with_deadlines inst ~deadlines with
      | None -> true (* infeasible deadline sets are legitimate *)
      | Some sol ->
          Array.for_all
            (fun e -> Schedule.round_of sol.Mrt_scheduler.schedule e <= deadlines.(e))
            (Array.init (Instance.n inst) (fun i -> i))
          && sol.Mrt_scheduler.rounding.Mrt_rounding.within_guarantee)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_fractional_rho_lower_bounds_exact;
        prop_feasibility_monotone;
        prop_declared_ub_matches_explicit_rows;
        prop_rounding_guarantee_unit;
        prop_rounding_guarantee_demands;
        prop_solve_optimal_wrt_exact;
        prop_deadline_schedules_meet_deadlines;
        prop_bracket_contains_rho;
        prop_bracketed_matches_plain_bisection;
        prop_solve_capacitated_guarantee;
        prop_solve_reuses_probe_at_rho;
      ]
  in
  Alcotest.run "flowsched_mrt"
    [
      ( "active-rounds",
        [
          Alcotest.test_case "of rho" `Quick test_active_of_rho;
          Alcotest.test_case "of deadlines" `Quick test_active_of_deadlines;
        ] );
      ( "lp",
        [
          Alcotest.test_case "feasibility + binary search" `Quick test_lp_feasibility_basic;
          Alcotest.test_case "fractional below integral" `Quick test_lp_fractional_below_integral;
          Alcotest.test_case "reference bisection warm = cold" `Quick
            test_reference_bisection_warm_matches_cold;
        ] );
      ( "bracket",
        [
          Alcotest.test_case "empty instance" `Quick test_bracket_empty;
          Alcotest.test_case "lb = ub runs no LP" `Quick test_bracket_closed_runs_no_lp;
          Alcotest.test_case "window bound with capacities" `Quick test_bracket_window_capacity;
          Alcotest.test_case "span carries lb and ub" `Quick test_bracket_span_args;
          Alcotest.test_case "probe at ub skips phase 1" `Quick test_probe_at_ub_skips_phase1;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "simple" `Quick test_rounding_simple;
          Alcotest.test_case "infeasible detected" `Quick test_rounding_infeasible;
        ] );
      ( "solver",
        [
          Alcotest.test_case "end to end" `Quick test_solve_end_to_end;
          Alcotest.test_case "deadlines feasible" `Quick test_deadlines_feasible;
          Alcotest.test_case "deadlines infeasible" `Quick test_deadlines_infeasible;
        ] );
      ("properties", props);
    ]
