(* Cross-stack integration tests: the extension modules (factor-augmented
   ART, the Section 6 open-problem study, skewed workloads) and
   end-to-end consistency between the LP bounds, offline algorithms, and
   online simulation. *)

open Flowsched_switch
open Flowsched_core
open Flowsched_online
open Flowsched_sim

(* --- factor-augmented Theorem 1 corollary --- *)

let test_factor_augmented_unit () =
  let inst = Workload.uniform_total ~m:4 ~n:24 ~max_release:5 ~seed:3 in
  let res = Art_scheduler.solve_factor_augmented inst in
  Alcotest.(check bool) "valid under factor capacities" true
    (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
  Alcotest.(check bool) "factor >= 1" true (res.Art_scheduler.factor >= 1);
  Alcotest.(check bool) "rounding cost below LP" true
    (res.Art_scheduler.rounding.Iterative_rounding.assignment_cost
    <= res.Art_scheduler.lp_total +. 1e-5)

let test_factor_augmented_general_demands () =
  (* unlike Theorem 1's matching conversion, the factor corollary accepts
     arbitrary demands *)
  let inst =
    Instance.of_flows ~cap_in:[| 3; 3 |] ~cap_out:[| 3; 3 |] ~m:2 ~m':2
      [ (0, 0, 3, 0); (0, 1, 2, 0); (1, 0, 1, 0); (1, 1, 3, 1); (0, 0, 2, 1) ]
  in
  let res = Art_scheduler.solve_factor_augmented inst in
  Alcotest.(check bool) "valid" true
    (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule)

let prop_factor_bounded_logarithmically =
  QCheck2.Test.make ~name:"factor augmentation stays O(log n)-sized" ~count:25
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 40))
    (fun (seed, n) ->
      let inst = Workload.uniform_total ~m:4 ~n ~max_release:6 ~seed in
      let res = Art_scheduler.solve_factor_augmented inst in
      let iters = res.Art_scheduler.rounding.Iterative_rounding.iterations in
      (* Lemma 3.7 implies a per-round overflow of at most 4 + 10*iters *)
      Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule
      && res.Art_scheduler.factor <= 5 + (10 * iters))

(* --- open problem (Section 6) --- *)

let test_open_problem_generator_slack () =
  for seed = 0 to 9 do
    let inst = Open_problem.generate ~seed ~m:5 ~rounds:6 in
    Alcotest.(check bool) "slack <= 1" true (Open_problem.interval_slack inst <= 1)
  done

let test_open_problem_slack_measure () =
  (* plain serial releases: slack 0 *)
  let serial = Instance.of_flows ~m:2 ~m':2 [ (0, 0, 1, 0); (0, 1, 1, 1); (1, 0, 1, 2) ] in
  Alcotest.(check int) "serial slack" 0 (Open_problem.interval_slack serial);
  (* two same-port releases in one round: slack 1 *)
  let bunched = Instance.of_flows ~m:2 ~m':2 [ (0, 0, 1, 0); (0, 1, 1, 0) ] in
  Alcotest.(check int) "bunched slack" 1 (Open_problem.interval_slack bunched);
  (* three: slack 2 *)
  let heavy = Instance.of_flows ~m:3 ~m':3 [ (0, 0, 1, 0); (0, 1, 1, 0); (0, 2, 1, 0) ] in
  Alcotest.(check int) "heavy slack" 2 (Open_problem.interval_slack heavy)

let test_open_problem_study () =
  let s = Open_problem.study ~seed:7 ~m:4 ~rounds:5 ~trials:5 in
  Alcotest.(check int) "trial count" 5 s.Open_problem.trials;
  Alcotest.(check bool) "slack within class" true (s.Open_problem.worst_slack <= 1);
  Alcotest.(check bool) "fractional <= heuristic" true
    (s.Open_problem.worst_fractional_rho <= s.Open_problem.worst_heuristic);
  (* the empirical question: constant response; sanity-check it is small *)
  Alcotest.(check bool) "heuristic response is a small constant" true
    (s.Open_problem.worst_heuristic <= 8)

(* --- skewed / hotspot workloads --- *)

let test_skewed_workload () =
  let inst = Workload.skewed ~m:6 ~rate:4.0 ~rounds:10 ~alpha:1.2 ~seed:5 in
  Alcotest.(check bool) "non-trivial" true (Instance.n inst > 0);
  (* port 0 must be strictly more popular than port m-1 under Zipf *)
  let count p =
    Array.fold_left
      (fun acc (f : Flow.t) -> if f.Flow.src = p then acc + 1 else acc)
      0 inst.Instance.flows
  in
  Alcotest.(check bool) "head heavier than tail" true (count 0 > count 5)

let test_hotspot_workload () =
  let inst = Workload.hotspot ~m:6 ~rate:5.0 ~rounds:20 ~fraction:0.5 ~seed:6 in
  let to_zero =
    Array.fold_left
      (fun acc (f : Flow.t) -> if f.Flow.dst = 0 then acc + 1 else acc)
      0 inst.Instance.flows
  in
  let n = Instance.n inst in
  Alcotest.(check bool) "hotspot concentrates" true
    (float_of_int to_zero >= 0.35 *. float_of_int n)

let test_skew_hurts_response () =
  (* hotspot load produces a strictly worse average response than uniform
     traffic at the same rate (queueing at the hot port) *)
  let uni = Workload.poisson ~m:6 ~rate:4.0 ~rounds:10 ~seed:9 in
  let hot = Workload.hotspot ~m:6 ~rate:4.0 ~rounds:10 ~fraction:0.7 ~seed:9 in
  let avg inst = Engine.average_response (Engine.run_instance Heuristics.maxweight inst) in
  Alcotest.(check bool) "hotspot worse" true (avg hot > avg uni)

(* --- end-to-end consistency --- *)

let prop_bounds_sandwich_everything =
  QCheck2.Test.make ~name:"LP bounds below every heuristic and baseline" ~count:15
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 5 30))
    (fun (seed, n) ->
      let inst = Workload.uniform_total ~m:4 ~n ~max_release:5 ~seed in
      let schedules =
        List.map
          (fun (p : Policy.t) -> (Engine.run_instance p inst).Engine.schedule)
          Heuristics.all_paper_heuristics
        @ [ Baselines.fifo inst; Baselines.greedy_maxcard inst; Baselines.srpt_order inst ]
      in
      let horizon =
        List.fold_left
          (fun acc s -> max acc (Schedule.makespan s))
          (Art_lp.default_horizon inst)
          schedules
      in
      let bound = Art_lp.lower_bound ~horizon inst in
      let rho_lp = Mrt_scheduler.min_fractional_rho inst in
      List.for_all
        (fun s ->
          Schedule.is_valid inst s
          && float_of_int (Schedule.total_response inst s) >= bound.Art_lp.total -. 1e-6
          && Schedule.max_response inst s >= rho_lp)
        schedules)

let prop_offline_pipelines_agree =
  QCheck2.Test.make ~name:"ART and MRT pipelines both valid on shared instances" ~count:10
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 5 20))
    (fun (seed, n) ->
      let inst = Workload.uniform_total ~m:3 ~n ~max_release:4 ~seed in
      let art = Art_scheduler.solve ~c:1 inst in
      let mrt = Mrt_scheduler.solve inst in
      Schedule.is_valid art.Art_scheduler.augmented art.Art_scheduler.schedule
      && Schedule.is_valid mrt.Mrt_scheduler.augmented mrt.Mrt_scheduler.schedule
      && float_of_int art.Art_scheduler.total_response >= art.Art_scheduler.lp_total -. 1e-6
      && mrt.Mrt_scheduler.rho <= mrt.Mrt_scheduler.fractional_rho)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_factor_bounded_logarithmically;
        prop_bounds_sandwich_everything;
        prop_offline_pipelines_agree;
      ]
  in
  Alcotest.run "flowsched_integration"
    [
      ( "factor-augmented",
        [
          Alcotest.test_case "unit demands" `Quick test_factor_augmented_unit;
          Alcotest.test_case "general demands" `Quick test_factor_augmented_general_demands;
        ] );
      ( "open-problem",
        [
          Alcotest.test_case "generator stays in class" `Quick test_open_problem_generator_slack;
          Alcotest.test_case "slack measure" `Quick test_open_problem_slack_measure;
          Alcotest.test_case "study" `Quick test_open_problem_study;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "skewed" `Quick test_skewed_workload;
          Alcotest.test_case "hotspot" `Quick test_hotspot_workload;
          Alcotest.test_case "skew hurts response" `Quick test_skew_hurts_response;
        ] );
      ("properties", props);
    ]
