(* Tests for the scenarios subsystem: the workload generators (parameter
   validation, determinism, the stream-prefix property), the centralized
   kind parser, the neighboring-problem modes (endpoint capacities,
   weighted coflows), and the matrix artifact's independence of --jobs. *)

open Flowsched_switch
module Scenario = Flowsched_sim.Scenario
module Workload = Flowsched_sim.Workload
module Matrix = Flowsched_sim.Matrix
module Experiment = Flowsched_sim.Experiment

let spec kind = { Scenario.kind; m = 5; rate = 2.0; rounds = 8; max_demand = 3; seed = 11 }

let rejects name f =
  Alcotest.(check bool) name true (match f () with _ -> false | exception Invalid_argument _ -> true)

(* --- parameter validation at the generator boundary --- *)

let test_workload_validation () =
  let module W = Flowsched_sim.Workload in
  rejects "poisson rate 0" (fun () -> W.poisson ~m:4 ~rate:0. ~rounds:5 ~seed:1);
  rejects "poisson rate < 0" (fun () -> W.poisson ~m:4 ~rate:(-1.) ~rounds:5 ~seed:1);
  rejects "poisson rate nan" (fun () -> W.poisson ~m:4 ~rate:nan ~rounds:5 ~seed:1);
  rejects "skewed alpha 0" (fun () -> W.skewed ~m:4 ~rate:1. ~rounds:5 ~alpha:0. ~seed:1);
  rejects "skewed alpha < 0" (fun () ->
      W.skewed ~m:4 ~rate:1. ~rounds:5 ~alpha:(-2.) ~seed:1);
  rejects "hotspot fraction > 1" (fun () ->
      W.hotspot ~m:4 ~rate:1. ~rounds:5 ~fraction:1.5 ~seed:1);
  rejects "hotspot fraction < 0" (fun () ->
      W.hotspot ~m:4 ~rate:1. ~rounds:5 ~fraction:(-0.1) ~seed:1);
  rejects "demands max_demand 0" (fun () ->
      W.poisson_with_demands ~m:4 ~rate:1. ~rounds:5 ~max_demand:0 ~seed:1);
  rejects "stream rate 0" (fun () -> W.poisson_stream ~m:4 ~rate:0. ~seed:1);
  rejects "stream bad alpha" (fun () -> W.skewed_stream ~m:4 ~rate:1. ~alpha:0. ~seed:1);
  rejects "stream bad max_demand" (fun () ->
      W.poisson_with_demands_stream ~m:4 ~rate:1. ~max_demand:0 ~seed:1)

let test_zoo_validation () =
  rejects "pareto alpha 0" (fun () ->
      Workload.pareto ~m:4 ~rate:1. ~alpha:0. ~max_demand:3 ~rounds:5 ~seed:1);
  rejects "pareto max_demand 0" (fun () ->
      Workload.pareto ~m:4 ~rate:1. ~alpha:1.5 ~max_demand:0 ~rounds:5 ~seed:1);
  rejects "pareto rate -1" (fun () ->
      Workload.pareto ~m:4 ~rate:(-1.) ~alpha:1.5 ~max_demand:3 ~rounds:5 ~seed:1);
  rejects "lognormal sigma 0" (fun () ->
      Workload.lognormal ~m:4 ~rate:1. ~mu:0.5 ~sigma:0. ~max_demand:3 ~rounds:5 ~seed:1);
  rejects "bursty duty > 1" (fun () ->
      Workload.bursty ~m:4 ~rate:1. ~burst:4. ~period:10 ~duty:1.5 ~rounds:5 ~seed:1);
  rejects "bursty period 0" (fun () ->
      Workload.bursty ~m:4 ~rate:1. ~burst:4. ~period:0 ~duty:0.5 ~rounds:5 ~seed:1);
  rejects "bursty burst 0" (fun () ->
      Workload.bursty ~m:4 ~rate:1. ~burst:0. ~period:10 ~duty:0.5 ~rounds:5 ~seed:1);
  rejects "diurnal amplitude < 0" (fun () ->
      Workload.diurnal ~m:4 ~rate:1. ~period:10 ~amplitude:(-0.1) ~rounds:5 ~seed:1);
  rejects "diurnal amplitude > 1" (fun () ->
      Workload.diurnal ~m:4 ~rate:1. ~period:10 ~amplitude:1.1 ~rounds:5 ~seed:1);
  rejects "flash mult 0" (fun () ->
      Workload.flash_crowd ~m:4 ~rate:1. ~at:2 ~len:2 ~mult:0. ~fraction:0.5 ~rounds:5 ~seed:1);
  rejects "flash fraction > 1" (fun () ->
      Workload.flash_crowd ~m:4 ~rate:1. ~at:2 ~len:2 ~mult:2. ~fraction:1.5 ~rounds:5 ~seed:1);
  rejects "flash negative at" (fun () ->
      Workload.flash_crowd ~m:4 ~rate:1. ~at:(-1) ~len:2 ~mult:2. ~fraction:0.5 ~rounds:5 ~seed:1);
  rejects "bimodal hot 0" (fun () ->
      Workload.bimodal ~m:4 ~rate:1. ~hot:0 ~weight:0.5 ~rounds:5 ~seed:1);
  rejects "bimodal hot > m" (fun () ->
      Workload.bimodal ~m:4 ~rate:1. ~hot:5 ~weight:0.5 ~rounds:5 ~seed:1);
  rejects "bimodal weight > 1" (fun () ->
      Workload.bimodal ~m:4 ~rate:1. ~hot:2 ~weight:1.5 ~rounds:5 ~seed:1);
  rejects "staircase t >= total" (fun () -> Workload.staircase ~m:4 ~t:5 ~total_rounds:5);
  rejects "staircase m 1" (fun () -> Workload.staircase ~m:1 ~t:1 ~total_rounds:3);
  rejects "crossflow m 2" (fun () -> Workload.crossflow ~m:2)

(* --- the centralized kind parser --- *)

let all_kinds =
  [
    Scenario.Poisson;
    Scenario.Poisson_demands;
    Scenario.Uniform_total;
    Scenario.Skewed 1.3;
    Scenario.Hotspot 0.4;
    Scenario.Pareto 1.2;
    Scenario.Lognormal { mu = 0.3; sigma = 0.9 };
    Scenario.Bursty { burst = 3.0; period = 12; duty = 0.25 };
    Scenario.Diurnal { period = 30; amplitude = 0.6 };
    Scenario.Flash_crowd { at = 5; len = 6; mult = 3.0; fraction = 0.4 };
    Scenario.Bimodal { hot = 2; weight = 0.7 };
    Scenario.Staircase;
    Scenario.Crossflow;
  ]

let test_of_string_roundtrip () =
  List.iter
    (fun kind ->
      let s = Scenario.to_string kind in
      match Scenario.of_string s with
      | Ok k -> Alcotest.(check string) ("round-trip " ^ s) s (Scenario.to_string k)
      | Error msg -> Alcotest.failf "of_string %S failed: %s" s msg)
    all_kinds

let test_of_string_defaults_and_aliases () =
  let ok s = match Scenario.of_string s with Ok k -> k | Error m -> Alcotest.failf "%s" m in
  Alcotest.(check bool) "demands alias" true (ok "demands" = Scenario.Poisson_demands);
  Alcotest.(check bool) "pareto default" true (ok "pareto" = Scenario.Pareto 1.5);
  Alcotest.(check bool) "bursty partial params" true
    (ok "bursty:3" = Scenario.Bursty { burst = 3.0; period = 20; duty = 0.25 });
  Alcotest.(check bool) "unknown rejected" true
    (match Scenario.of_string "fractal" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "excess params rejected" true
    (match Scenario.of_string "poisson:2" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad number rejected" true
    (match Scenario.of_string "pareto:abc" with Error _ -> true | Ok _ -> false)

let test_mode_roundtrip () =
  List.iter
    (fun mode ->
      let s = Matrix.mode_to_string mode in
      match Matrix.mode_of_string s with
      | Ok m -> Alcotest.(check string) ("mode round-trip " ^ s) s (Matrix.mode_to_string m)
      | Error msg -> Alcotest.failf "mode_of_string %S failed: %s" s msg)
    [
      Matrix.Flows;
      Matrix.Endpoint { nodes = 2; node_cap = 3 };
      Matrix.Coflow { groups = 4; max_weight = 5 };
    ];
  Alcotest.(check bool) "bad mode rejected" true
    (match Matrix.mode_of_string "nodes" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad param rejected" true
    (match Matrix.mode_of_string "endpoint:0" with Error _ -> true | Ok _ -> false)

(* --- endpoint (node) capacities --- *)

let test_endpoint_blocks () =
  let ep = Endpoint.blocks ~m:6 ~m':6 ~nodes:2 ~cap:2 in
  Alcotest.(check int) "nodes_in" 2 ep.Endpoint.nodes_in;
  Alcotest.(check int) "port 0 -> node 0" 0 ep.Endpoint.node_in.(0);
  Alcotest.(check int) "port 5 -> node 1" 1 ep.Endpoint.node_in.(5);
  rejects "more nodes than ports" (fun () -> Endpoint.blocks ~m:2 ~m':2 ~nodes:3 ~cap:1);
  rejects "cap 0" (fun () -> Endpoint.blocks ~m:4 ~m':4 ~nodes:2 ~cap:0)

let test_endpoint_feasible () =
  let ep = Endpoint.blocks ~m:4 ~m':4 ~nodes:2 ~cap:1 in
  let flow id src dst = Flow.make ~id ~src ~dst ~demand:1 ~release:0 () in
  (* Ports 0,1 share input node 0: two unit flows from them exceed cap 1. *)
  Alcotest.(check bool) "one flow fits" true (Endpoint.feasible ep [ flow 0 0 2 ]);
  Alcotest.(check bool) "same node overflows" false
    (Endpoint.feasible ep [ flow 0 0 2; flow 1 1 3 ]);
  Alcotest.(check bool) "distinct nodes fit" true
    (Endpoint.feasible ep [ flow 0 0 2; flow 1 2 0 ])

let test_fifo_endpoint_schedules_feasibly () =
  let inst = Flowsched_sim.Workload.poisson ~m:6 ~rate:3.0 ~rounds:8 ~seed:3 in
  let ep = Endpoint.blocks ~m:6 ~m':6 ~nodes:3 ~cap:1 in
  let sched = Flowsched_core.Baselines.fifo_endpoint ep inst in
  Alcotest.(check bool) "port-valid" true (Schedule.is_valid inst sched);
  Alcotest.(check bool) "node-feasible every round" true
    (Endpoint.schedule_feasible ep inst sched)

let test_engine_endpoint_validation () =
  (* An unguarded policy that packs only against port capacities must trip
     the engine's node-capacity validation on a workload dense enough to
     overflow a shared node. *)
  let inst = Flowsched_sim.Workload.poisson ~m:6 ~rate:4.0 ~rounds:8 ~seed:2 in
  let ep = Endpoint.blocks ~m:6 ~m':6 ~nodes:2 ~cap:1 in
  Alcotest.(check bool) "violation detected" true
    (match
       Flowsched_sim.Engine.run_instance ~endpoint:ep ~max_rounds:500
         Flowsched_online.Heuristics.maxcard inst
     with
    | _ -> false
    | exception Flowsched_sim.Engine.Policy_violation _ -> true
    | exception Flowsched_sim.Engine.Horizon_exceeded _ -> false)

(* --- weighted coflows --- *)

let test_wsebf_unit_weights_equals_sebf () =
  let inst = Flowsched_sim.Workload.uniform_total ~m:4 ~n:40 ~max_release:6 ~seed:21 in
  let cof = Flowsched_core.Coflow.random_grouping ~seed:22 ~groups:6 inst in
  Alcotest.(check bool) "same schedule" true
    (Schedule.assignment (Flowsched_core.Coflow.wsebf cof)
    = Schedule.assignment (Flowsched_core.Coflow.sebf cof))

let test_weighted_bound_sandwich () =
  let inst = Flowsched_sim.Workload.uniform_total ~m:4 ~n:36 ~max_release:5 ~seed:31 in
  let cof = Flowsched_core.Coflow.random_grouping ~seed:32 ~groups:5 inst in
  let weights = [| 3; 1; 4; 1; 5 |] in
  let cof = Flowsched_core.Coflow.with_weights cof weights in
  let sched = Flowsched_core.Coflow.wsebf cof in
  let bound = Flowsched_core.Coflow.weighted_bottleneck_bound cof in
  let achieved = Flowsched_core.Coflow.weighted_average_response cof sched in
  Alcotest.(check bool) "bound below achieved" true (bound <= achieved +. 1e-9);
  rejects "bad weights length" (fun () ->
      Flowsched_core.Coflow.with_weights cof [| 1; 2 |]);
  rejects "nonpositive weight" (fun () ->
      Flowsched_core.Coflow.with_weights cof [| 1; 1; 0; 1; 1 |])

(* --- matrix cells and the artifact --- *)

let policies = Flowsched_online.Heuristics.all_paper_heuristics

let small_cells =
  List.concat_map
    (fun workload ->
      List.map
        (fun mode ->
          {
            Experiment.workload;
            spec = spec (Scenario.of_string_exn workload);
            mode;
            lp = true;
          })
        [
          Matrix.Flows;
          Matrix.Endpoint { nodes = 2; node_cap = 2 };
          Matrix.Coflow { groups = 3; max_weight = 4 };
        ])
    [ "poisson"; "pareto:1.5"; "bursty:4:10:0.3"; "staircase" ]

let test_matrix_cell_shapes () =
  List.iter
    (fun (cell : Experiment.cell) ->
      let r = Experiment.run_cell ~policies cell in
      let b = r.Experiment.bound in
      Alcotest.(check bool) "has entries" true (r.Experiment.entries <> []);
      (match cell.Experiment.mode with
      | Matrix.Flows -> Alcotest.(check string) "lp bound kind" "lp" b.Experiment.kind
      | Matrix.Endpoint _ ->
          Alcotest.(check string) "relaxed bound kind" "lp-relaxed" b.Experiment.kind;
          Alcotest.(check bool) "fifo-endpoint entry present" true
            (List.exists
               (fun (e : Experiment.entry) -> e.Experiment.name = "fifo-endpoint")
               r.Experiment.entries)
      | Matrix.Coflow _ ->
          Alcotest.(check string) "bottleneck bound kind" "bottleneck" b.Experiment.kind);
      if r.Experiment.flows > 0 && b.Experiment.error = None then begin
        Alcotest.(check bool) "avg bound finite" true (Float.is_finite b.Experiment.avg);
        (* Every algorithm must stay above the mode's lower bound. *)
        List.iter
          (fun (e : Experiment.entry) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s above bound in %s" e.Experiment.name
                 (Matrix.mode_to_string cell.Experiment.mode))
              true
              (e.Experiment.art +. 1e-9 >= b.Experiment.avg))
          r.Experiment.entries
      end)
    small_cells

let test_matrix_backend_identical () =
  let render jobs =
    Flowsched_util.Json.to_string
      (Flowsched_sim.Report.matrix_json (Experiment.run ~policies ~jobs small_cells))
  in
  Alcotest.(check string) "fork jobs=3 identical to inline" (render 1) (render 3)

(* --- properties --- *)

let streamable_kinds =
  List.filter (fun k -> k <> Scenario.Uniform_total) all_kinds

let prop_instance_deterministic =
  QCheck2.Test.make ~name:"scenario instance deterministic per seed" ~count:60
    QCheck2.Gen.(
      triple (int_bound 1_000_000)
        (int_range 0 (List.length all_kinds - 1))
        (pair (int_range 3 7) (int_range 2 10)))
    (fun (seed, ki, (m, rounds)) ->
      let s = { (spec (List.nth all_kinds ki)) with Scenario.m; rounds; seed } in
      Instance.to_string (Scenario.instance s) = Instance.to_string (Scenario.instance s))

let prop_stream_prefix_equals_batch =
  (* For every streamable kind, folding the stream over the spec's horizon
     and materializing the specs as an instance reproduces the batch
     instance byte for byte. *)
  QCheck2.Test.make ~name:"stream prefix = batch instance" ~count:80
    QCheck2.Gen.(
      triple (int_bound 1_000_000)
        (int_range 0 (List.length streamable_kinds - 1))
        (pair (int_range 3 7) (int_range 2 10)))
    (fun (seed, ki, (m, rounds)) ->
      let s = { (spec (List.nth streamable_kinds ki)) with Scenario.m; rounds; seed } in
      match Scenario.stream s with
      | Error _ -> false
      | Ok arrivals ->
          let specs = ref [] in
          for t = 0 to rounds - 1 do
            List.iter
              (fun (src, dst, d) -> specs := (src, dst, d, t) :: !specs)
              (Workload.next arrivals)
          done;
          let m, m' = Scenario.geometry s in
          let cap = Scenario.port_capacity s in
          let cap_in = Array.make m cap and cap_out = Array.make m' cap in
          let streamed =
            Instance.of_flows ~cap_in ~cap_out ~m ~m' (List.rev !specs)
          in
          Instance.to_string streamed = Instance.to_string (Scenario.instance s))

let prop_demands_within_caps =
  (* Capacity feasibility: every generated flow fits its ports, i.e. demand
     <= the spec's port capacity (Instance.of_flows would reject otherwise,
     but the property pins the cap contract itself). *)
  QCheck2.Test.make ~name:"zoo demands within port capacity" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 6))
    (fun (seed, max_demand) ->
      let check kind =
        let s = { (spec kind) with Scenario.seed; max_demand } in
        let cap = Scenario.port_capacity s in
        Array.for_all
          (fun (f : Flow.t) -> f.Flow.demand >= 1 && f.Flow.demand <= cap)
          (Scenario.instance s).Instance.flows
      in
      check (Scenario.Pareto 1.3)
      && check (Scenario.Lognormal { mu = 0.8; sigma = 1.0 })
      && check Scenario.Poisson_demands)

let prop_endpoint_mode_feasible =
  (* The guarded engine run in Endpoint mode must produce node-feasible
     schedules — certified by replaying the baseline against
     Endpoint.schedule_feasible (the engine already validates its own run
     every round via ~endpoint). *)
  QCheck2.Test.make ~name:"endpoint cells schedule node-feasibly" ~count:25
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 8))
    (fun (seed, m) ->
      let inst = Flowsched_sim.Workload.poisson ~m ~rate:2.5 ~rounds:6 ~seed in
      let ep = Endpoint.blocks ~m ~m':m ~nodes:2 ~cap:1 in
      let sched = Flowsched_core.Baselines.fifo_endpoint ep inst in
      Schedule.is_valid inst sched && Endpoint.schedule_feasible ep inst sched)

(* --- serve integration --- *)

let test_source_of_scenario () =
  let s = spec (Scenario.Bursty { burst = 3.0; period = 10; duty = 0.3 }) in
  let src = Flowsched_serve.Source.of_scenario s ~horizon:8 in
  let inst = Scenario.instance s in
  let by_release = Array.make 8 [] in
  Array.iter
    (fun (f : Flow.t) ->
      by_release.(f.Flow.release) <-
        by_release.(f.Flow.release) @ [ (f.Flow.src, f.Flow.dst, f.Flow.demand) ])
    inst.Instance.flows;
  for slot = 0 to 7 do
    Alcotest.(check bool) "more while slots remain" true
      (Flowsched_serve.Source.more src slot);
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "slot %d arrivals match batch" slot)
      by_release.(slot)
      (Flowsched_serve.Source.pull src slot)
  done;
  Alcotest.(check bool) "exhausted after horizon" false (Flowsched_serve.Source.more src 8);
  rejects "uniform has no stream" (fun () ->
      Flowsched_serve.Source.of_scenario (spec Scenario.Uniform_total) ~horizon:4)

let prop_parser_total =
  QCheck2.Test.make ~name:"Scenario.of_string: mutants give Ok or Error" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(oneofl all_kinds >>= fun kind -> Fuzz.mutant (Scenario.to_string kind))
    (Fuzz.total ~what:"Scenario.of_string" Scenario.of_string)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_instance_deterministic;
        prop_stream_prefix_equals_batch;
        prop_demands_within_caps;
        prop_endpoint_mode_feasible;
        prop_parser_total;
      ]
  in
  Alcotest.run "flowsched_scenarios"
    [
      ( "validation",
        [
          Alcotest.test_case "workload boundary" `Quick test_workload_validation;
          Alcotest.test_case "zoo boundary" `Quick test_zoo_validation;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round-trip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "defaults and aliases" `Quick test_of_string_defaults_and_aliases;
          Alcotest.test_case "mode round-trip" `Quick test_mode_roundtrip;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "blocks" `Quick test_endpoint_blocks;
          Alcotest.test_case "feasible" `Quick test_endpoint_feasible;
          Alcotest.test_case "fifo baseline" `Quick test_fifo_endpoint_schedules_feasibly;
          Alcotest.test_case "engine validation" `Quick test_engine_endpoint_validation;
        ] );
      ( "coflow",
        [
          Alcotest.test_case "unit weights = sebf" `Quick test_wsebf_unit_weights_equals_sebf;
          Alcotest.test_case "weighted bound" `Quick test_weighted_bound_sandwich;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "cell shapes" `Slow test_matrix_cell_shapes;
          Alcotest.test_case "backend identical" `Slow test_matrix_backend_identical;
        ] );
      ("serve", [ Alcotest.test_case "source of scenario" `Quick test_source_of_scenario ]);
      ("properties", props);
    ]
