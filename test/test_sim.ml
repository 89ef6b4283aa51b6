(* Tests for the simulator layer: workload generation, adaptive engine
   plumbing, the experiment grid, and report rendering. *)

open Flowsched_switch
open Flowsched_online
open Flowsched_sim

(* --- workload --- *)

let test_poisson_deterministic () =
  let a = Workload.poisson ~m:5 ~rate:2.5 ~rounds:10 ~seed:42 in
  let b = Workload.poisson ~m:5 ~rate:2.5 ~rounds:10 ~seed:42 in
  Alcotest.(check string) "same instance" (Instance.to_string a) (Instance.to_string b);
  let c = Workload.poisson ~m:5 ~rate:2.5 ~rounds:10 ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Instance.to_string a <> Instance.to_string c)

let test_poisson_shape () =
  let inst = Workload.poisson ~m:5 ~rate:3.0 ~rounds:12 ~seed:7 in
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "release in range" true (f.Flow.release >= 0 && f.Flow.release < 12);
      Alcotest.(check int) "unit demand" 1 f.Flow.demand;
      Alcotest.(check bool) "ports in range" true
        (f.Flow.src >= 0 && f.Flow.src < 5 && f.Flow.dst >= 0 && f.Flow.dst < 5))
    inst.Instance.flows

let test_poisson_mean_count () =
  (* law of large numbers over many trials *)
  let total = ref 0 in
  for seed = 0 to 199 do
    total := !total + Instance.n (Workload.poisson ~m:4 ~rate:2.0 ~rounds:10 ~seed)
  done;
  let mean = float_of_int !total /. 200. in
  Alcotest.(check bool) "mean near rate*rounds" true (abs_float (mean -. 20.) < 1.5)

let test_poisson_with_demands () =
  let inst = Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:8 ~max_demand:3 ~seed:5 in
  Alcotest.(check (array int)) "caps raised" (Array.make 4 3) inst.Instance.cap_in;
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "demand in range" true (f.Flow.demand >= 1 && f.Flow.demand <= 3))
    inst.Instance.flows

let test_uniform_total () =
  let inst = Workload.uniform_total ~m:3 ~n:17 ~max_release:4 ~seed:2 in
  Alcotest.(check int) "n exact" 17 (Instance.n inst);
  Alcotest.(check bool) "releases bounded" true (Instance.last_release inst <= 4)

(* --- arrival streams --- *)

(* The slot-t arrivals of a stream must be exactly the release-t flows of
   the batch instance built from the same seed, in generation order — the
   prefix property the serve layer leans on to replay served traces through
   the batch engine. *)
let check_stream_prefix name s inst ~rounds =
  let streamed = Array.init rounds (fun _ -> Workload.next s) in
  Alcotest.(check int) (name ^ ": slots generated") rounds (Workload.slot s);
  let by_release = Array.make rounds [] in
  Array.iter
    (fun (f : Flow.t) ->
      by_release.(f.Flow.release) <-
        (f.Flow.src, f.Flow.dst, f.Flow.demand) :: by_release.(f.Flow.release))
    inst.Instance.flows;
  for t = 0 to rounds - 1 do
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "%s: slot %d arrivals" name t)
      (List.rev by_release.(t))
      streamed.(t)
  done

let test_stream_prefix_uniform () =
  check_stream_prefix "uniform"
    (Workload.poisson_stream ~m:5 ~rate:2.5 ~seed:42)
    (Workload.poisson ~m:5 ~rate:2.5 ~rounds:40 ~seed:42)
    ~rounds:40

let test_stream_prefix_demands () =
  check_stream_prefix "demands"
    (Workload.poisson_with_demands_stream ~m:4 ~rate:2.0 ~max_demand:3 ~seed:5)
    (Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:30 ~max_demand:3 ~seed:5)
    ~rounds:30

let test_stream_prefix_skewed () =
  check_stream_prefix "skewed"
    (Workload.skewed_stream ~m:6 ~rate:3.0 ~alpha:1.2 ~seed:8)
    (Workload.skewed ~m:6 ~rate:3.0 ~rounds:30 ~alpha:1.2 ~seed:8)
    ~rounds:30

let test_stream_prefix_hotspot () =
  check_stream_prefix "hotspot"
    (Workload.hotspot_stream ~m:6 ~rate:3.0 ~fraction:0.4 ~seed:11)
    (Workload.hotspot ~m:6 ~rate:3.0 ~rounds:30 ~fraction:0.4 ~seed:11)
    ~rounds:30

(* --- horizon guard --- *)

let test_horizon_exceeded () =
  let never = { Policy.name = "never"; select = (fun _ -> []) } in
  let inst = Instance.of_flows ~m:2 ~m':2 [ (0, 1, 1, 0); (1, 0, 1, 2) ] in
  (match Engine.run_instance ~max_rounds:37 never inst with
  | _ -> Alcotest.fail "expected Horizon_exceeded"
  | exception Engine.Horizon_exceeded { round; pending } ->
      Alcotest.(check int) "round reached" 37 round;
      Alcotest.(check int) "queue depth carried" 2 pending);
  (* A horizon at or below the last release cuts the run even when the
     queue is empty there: the flow released later has not arrived, in
     either order of the instance's flows. *)
  List.iter
    (fun (label, flows) ->
      let inst = Instance.of_flows ~m:2 ~m':2 flows in
      match Engine.run_instance ~max_rounds:10 Heuristics.fifo inst with
      | _ -> Alcotest.failf "%s: expected Horizon_exceeded" label
      | exception Engine.Horizon_exceeded { round; pending } ->
          Alcotest.(check int) (label ^ ": round reached") 10 round;
          Alcotest.(check int) (label ^ ": queue empty") 0 pending)
    [
      ("late flow last", [ (0, 0, 1, 0); (1, 1, 1, 50) ]);
      ("late flow first", [ (1, 1, 1, 50); (0, 0, 1, 0) ]);
    ]

(* --- adaptive engine plumbing --- *)

let test_adaptive_ids_sequential () =
  let arrivals ~round ~pending:_ = if round < 3 then [ (0, 0, 1) ] else [] in
  let r =
    Engine.run_adaptive ~m:1 ~m':1 ~arrivals ~stop_arrivals_after:3 Heuristics.fifo
  in
  Alcotest.(check int) "three flows" 3 (Array.length r.Engine.flows);
  Array.iteri
    (fun i (f : Flow.t) -> Alcotest.(check int) "id = index" i f.Flow.id)
    r.Engine.flows

let test_adaptive_stops_arrivals () =
  let calls = ref 0 in
  let arrivals ~round:_ ~pending:_ =
    incr calls;
    [ (0, 0, 1) ]
  in
  let r =
    Engine.run_adaptive ~m:1 ~m':1 ~arrivals ~stop_arrivals_after:4 Heuristics.fifo
  in
  Alcotest.(check int) "callback consulted 4 times" 4 !calls;
  Alcotest.(check int) "four flows" 4 (Array.length r.Engine.flows)

let test_adaptive_sees_pending () =
  (* the adversary observes the one flow FIFO could not schedule *)
  let observed = ref (-1) in
  let arrivals ~round ~pending =
    if round = 0 then [ (0, 0, 1); (0, 0, 1) ]
    else begin
      if round = 1 then observed := List.length pending;
      []
    end
  in
  ignore (Engine.run_adaptive ~m:1 ~m':1 ~arrivals ~stop_arrivals_after:2 Heuristics.fifo);
  Alcotest.(check int) "one pending at round 1" 1 !observed

(* A spec becomes a flow only if Instance.create would accept it: the
   arrival check raises at admission instead of the policy indexing past a
   port array or starving a flow no round can carry. *)
let test_adaptive_rejects_bad_specs () =
  List.iter
    (fun (label, spec, message) ->
      let arrivals ~round ~pending:_ = if round = 0 then [ spec ] else [] in
      Alcotest.check_raises label (Invalid_argument message) (fun () ->
          ignore
            (Engine.run_adaptive ~max_rounds:100 ~m:2 ~m':2 ~arrivals ~stop_arrivals_after:1
               Heuristics.maxweight)))
    [
      ("source port 5 of 2", (5, 0, 1), "Instance: src out of range");
      ("demand 3 on capacity 1", (0, 1, 3), "Instance: demand exceeds kappa (min port capacity)");
    ]

(* --- experiment grid --- *)

let test_run_cell_without_lp () =
  let cell =
    Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
      {
        Experiment.m = 4;
        rate = 2.0;
        rounds = 5;
        tries = 3;
        seed = 11;
        with_lp = false;
      }
  in
  Alcotest.(check int) "three policies (avg)" 3 (List.length cell.Experiment.avg_response);
  Alcotest.(check int) "three policies (max)" 3 (List.length cell.Experiment.max_response);
  Alcotest.(check bool) "lp skipped" true (Float.is_nan cell.Experiment.lp_avg_bound);
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "avg >= 1" true (v >= 1.))
    cell.Experiment.avg_response

let test_run_cell_with_lp () =
  let cell =
    Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
      {
        Experiment.m = 3;
        rate = 1.5;
        rounds = 4;
        tries = 2;
        seed = 5;
        with_lp = true;
      }
  in
  Alcotest.(check bool) "lp bound computed" true
    (not (Float.is_nan cell.Experiment.lp_avg_bound));
  Alcotest.(check bool) "lp max bound computed" true
    (not (Float.is_nan cell.Experiment.lp_max_bound));
  (* Lemma 3.1/relaxation: bounds sit below every heuristic *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " above avg LP") true
        (v >= cell.Experiment.lp_avg_bound -. 1e-6))
    cell.Experiment.avg_response;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " above max LP") true
        (v >= cell.Experiment.lp_max_bound -. 1e-6))
    cell.Experiment.max_response

let test_fig6_grid_layout () =
  let grid =
    Experiment.fig6_grid ~m:6 ~tries:2 ~lp_rounds_limit:8 ~congestion:[ 0.5; 1.0 ]
      ~rounds:[ 6; 8; 12 ] ()
  in
  Alcotest.(check int) "cells" 6 (List.length grid);
  List.iter
    (fun (c : Experiment.cell_config) ->
      Alcotest.(check bool) "lp flag respects limit" true
        (c.Experiment.with_lp = (c.Experiment.rounds <= 8));
      Alcotest.(check bool) "rate scales with m" true
        (c.Experiment.rate = 3.0 || c.Experiment.rate = 6.0))
    grid

(* --- report --- *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let sample_results () =
  Experiment.run_grid ~policies:Heuristics.all_paper_heuristics
    [
      { Experiment.m = 3; rate = 1.0; rounds = 4; tries = 2; seed = 3; with_lp = true };
      { Experiment.m = 3; rate = 3.0; rounds = 4; tries = 2; seed = 4; with_lp = false };
    ]

let test_report_tables () =
  let results = sample_results () in
  let f6 = Report.fig6_table results and f7 = Report.fig7_table results in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in fig6") true (contains f6 name);
      Alcotest.(check bool) (name ^ " in fig7") true (contains f7 name))
    [ "MaxCard"; "MinRTime"; "MaxWeight"; "LP bound" ];
  Alcotest.(check bool) "lp-less cell rendered with dashes" true (contains f6 "-")

let test_report_csv () =
  let results = sample_results () in
  let csv = Report.csv ~objective:`Avg results in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* header + 2 cells x 3 policies *)
  Alcotest.(check int) "line count" 7 (List.length lines);
  Alcotest.(check bool) "header" true
    (contains (List.hd lines) "policy,value,lp_bound")

(* --- properties --- *)

let prop_workload_poisson_counts =
  QCheck2.Test.make ~name:"poisson instance validates" ~count:50
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 1 15))
    (fun (seed, m, rounds) ->
      let inst = Workload.poisson ~m ~rate:1.5 ~rounds ~seed in
      Instance.last_release inst <= rounds - 1 || Instance.n inst = 0)

let prop_generators_match_reference =
  (* The paper generators are folds of their streams; the batch loops they
     replaced ([Reference.Workload]) must give the same instances.  No
     golden runs poisson-demands, skewed or hotspot, so this is their
     behaviour contract. *)
  QCheck2.Test.make ~name:"generators = pre-stream batch loops" ~count:300
    ~print:(fun (m, rate, rounds, seed, alpha, fraction, max_demand) ->
      Printf.sprintf "m=%d rate=%h rounds=%d seed=%d alpha=%h fraction=%h max_demand=%d" m
        rate rounds seed alpha fraction max_demand)
    QCheck2.Gen.(
      tup7 (int_range 1 8)
        (map (fun x -> 6. -. x) (float_bound_exclusive 6.))
        (int_range 1 30) (int_bound 1_000_000)
        (map (fun x -> 3. -. x) (float_bound_exclusive 3.))
        (float_range 0. 1.) (int_range 1 5))
    (fun (m, rate, rounds, seed, alpha, fraction, max_demand) ->
      let module R = Reference.Workload in
      let same a b = Instance.to_string a = Instance.to_string b in
      same (Workload.poisson ~m ~rate ~rounds ~seed) (R.poisson ~m ~rate ~rounds ~seed)
      && same
           (Workload.poisson_with_demands ~m ~rate ~rounds ~max_demand ~seed)
           (R.poisson_with_demands ~m ~rate ~rounds ~max_demand ~seed)
      && same
           (Workload.skewed ~m ~rate ~rounds ~alpha ~seed)
           (R.skewed ~m ~rate ~rounds ~alpha ~seed ())
      && same
           (Workload.hotspot ~m ~rate ~rounds ~fraction ~seed)
           (R.hotspot ~m ~rate ~rounds ~fraction ~seed ()))

let prop_engine_matches_offline_fifo =
  (* the online FIFO engine and the offline FIFO baseline must agree *)
  QCheck2.Test.make ~name:"online FIFO = offline FIFO baseline" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 25))
    (fun (seed, n) ->
      let inst = Workload.uniform_total ~m:4 ~n ~max_release:5 ~seed in
      let online = Engine.run_instance Heuristics.fifo inst in
      let offline = Flowsched_core.Baselines.fifo inst in
      Schedule.assignment online.Engine.schedule = Schedule.assignment offline)

(* The one executor's two paths: random LP-enabled sweep grids run inline
   ([jobs = 1]) and on 4 forked workers must write the same artifact, up to
   its timing fields, and merge the same algorithmic counter totals.  Only
   the pool's own "pool.*" counters legitimately differ between the two. *)
let prop_inline_equals_fork =
  let algorithmic_counters snap =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Flowsched_obs.Metrics.Counter n when not (String.starts_with ~prefix:"pool." name) ->
            Some (name, n)
        | _ -> None)
      snap
  in
  QCheck2.Test.make ~name:"inline = fork (artifact and counters)" ~count:1
    QCheck2.Gen.(
      list_size (int_range 2 4)
        (triple (int_range 1 1_000_000) (int_range 1 3) (int_range 3 5)))
    (fun specs ->
      let policies = [ Heuristics.maxcard; Heuristics.minrtime ] in
      let run jobs cells =
        let module Metrics = Flowsched_obs.Metrics in
        let before = Metrics.snapshot () in
        let results = Experiment.run_sweep ~policies ~jobs cells in
        let counters = algorithmic_counters (Metrics.diff (Metrics.snapshot ()) before) in
        let artifact =
          Flowsched_util.Json.to_string
            (Report.sweep_json ~jobs:1 (List.map Report.strip_sweep_timing results))
        in
        (artifact, counters)
      in
      List.for_all
        (fun (seed, ncells, horizon) ->
          let cells =
            List.init ncells (fun i ->
                {
                  Experiment.workload = (if (seed + i) mod 2 = 0 then "poisson" else "uniform");
                  ports = 4;
                  arrival_rate = 2.0;
                  horizon;
                  max_demand = 3;
                  sweep_seed = seed + (31 * i);
                  lp = true;
                })
          in
          let inline_artifact, inline_counters = run 1 cells in
          let fork_artifact, fork_counters = run 4 cells in
          if inline_artifact <> fork_artifact then
            QCheck2.Test.fail_reportf "seed %d: fork artifact differs from inline" seed;
          if inline_counters <> fork_counters then
            QCheck2.Test.fail_reportf "seed %d: fork counter totals differ from inline" seed;
          true)
        specs)

(* --- parallel grids and the sweep artifact --- *)

let test_run_grid_parallel_identical () =
  let grid =
    Experiment.fig6_grid ~m:4 ~tries:2 ~seed:9 ~lp_rounds_limit:4 ~congestion:[ 0.5; 1. ]
      ~rounds:[ 3; 4 ] ()
  in
  let policies = Heuristics.all_paper_heuristics in
  let seq = Experiment.run_grid ~policies ~jobs:1 grid in
  let par = Experiment.run_grid ~policies ~jobs:3 grid in
  Alcotest.(check int) "same cell count" (List.length seq) (List.length par);
  Alcotest.(check bool) "identical results in job order" true (seq = par);
  Alcotest.(check string) "identical fig6 table" (Report.fig6_table seq)
    (Report.fig6_table par);
  Alcotest.(check string) "identical fig7 table" (Report.fig7_table seq)
    (Report.fig7_table par)

let sweep_cells =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          {
            Experiment.workload;
            ports = 4;
            arrival_rate = 2.0;
            horizon = 4;
            max_demand = 2;
            sweep_seed = seed;
            lp = true;
          })
        [ 1; 2 ])
    [ "poisson"; "uniform" ]

let test_sweep_deterministic_across_jobs () =
  let policies = [ Heuristics.maxcard; Heuristics.maxweight ] in
  (* Discrete LP counters (pivots, warm accepts, ...) must be identical
     across job counts too; only the timing fields are nondeterministic. *)
  let strip_wall = Report.strip_sweep_timing in
  let seq = List.map strip_wall (Experiment.run_sweep ~policies ~jobs:1 sweep_cells) in
  let par = List.map strip_wall (Experiment.run_sweep ~policies ~jobs:3 sweep_cells) in
  Alcotest.(check bool) "sweep results identical up to wall-clock" true (seq = par)

let test_sweep_artifact_roundtrip () =
  let open Flowsched_util in
  let policies = [ Heuristics.maxcard; Heuristics.minrtime ] in
  let results = Experiment.run_sweep ~policies ~jobs:2 sweep_cells in
  let artifact = Report.sweep_json ~jobs:2 results in
  let parsed =
    match Json.parse (Json.to_string artifact) with
    | Ok v -> v
    | Error e -> Alcotest.failf "sweep artifact does not parse: %s" e
  in
  Alcotest.(check (option string)) "schema tag" (Some "flowsched-sweep/1")
    (Option.bind (Json.member "schema" parsed) Json.to_string_opt);
  Alcotest.(check (option int)) "jobs recorded" (Some 2)
    (Option.bind (Json.member "jobs" parsed) Json.to_int_opt);
  let cells = Json.to_list (Option.value ~default:Json.Null (Json.member "cells" parsed)) in
  Alcotest.(check int) "one JSON object per cell" (List.length results) (List.length cells);
  List.iter2
    (fun (r : Experiment.sweep_result) cell ->
      Alcotest.(check (option string)) "workload" (Some r.Experiment.sweep.Experiment.workload)
        (Option.bind (Json.member "workload" cell) Json.to_string_opt);
      Alcotest.(check (option int)) "flows" (Some r.Experiment.flows)
        (Option.bind (Json.member "flows" cell) Json.to_int_opt);
      let pols = Json.to_list (Option.value ~default:Json.Null (Json.member "policies" cell)) in
      Alcotest.(check int) "per-policy entries" (List.length r.Experiment.per_policy)
        (List.length pols);
      List.iter2
        (fun (p : Experiment.sweep_policy_result) pj ->
          Alcotest.(check (option string)) "policy name" (Some p.Experiment.policy)
            (Option.bind (Json.member "name" pj) Json.to_string_opt);
          (match Option.bind (Json.member "avg_response" pj) Json.to_float_opt with
          | Some art -> Alcotest.(check (float 1e-9)) "ART round-trips" p.Experiment.art art
          | None -> Alcotest.(check bool) "nan ART serialized as null" true (Float.is_nan p.Experiment.art));
          Alcotest.(check (option int)) "MRT round-trips" (Some p.Experiment.mrt)
            (Option.bind (Json.member "max_response" pj) Json.to_int_opt))
        r.Experiment.per_policy pols;
      match Option.bind (Json.member "lp_avg_bound" cell) Json.to_float_opt with
      | Some lp -> Alcotest.(check (float 1e-9)) "LP bound round-trips" r.Experiment.lp_avg lp
      | None -> Alcotest.(check bool) "nan LP serialized as null" true (Float.is_nan r.Experiment.lp_avg))
    results cells

let test_lp_failure_degrades_gracefully () =
  let open Flowsched_util in
  let policies = [ Heuristics.maxcard ] in
  let cell = List.hd sweep_cells in
  let c = Flowsched_obs.Metrics.counter "sweep.lp_errors" in
  let before = Flowsched_obs.Metrics.counter_value c in
  Experiment.lp_failure_for_tests := Some (Failure "synthetic LP failure");
  let r =
    Fun.protect
      ~finally:(fun () -> Experiment.lp_failure_for_tests := None)
      (fun () -> Experiment.run_sweep_cell ~policies cell)
  in
  Alcotest.(check bool) "both bounds degrade to nan" true
    (Float.is_nan r.Experiment.lp_avg && Float.is_nan r.Experiment.lp_max);
  (match r.Experiment.lp_error with
  | Some msg ->
      Alcotest.(check bool) "error text preserved" true
        (let rec go i =
           i + 20 <= String.length msg && (String.sub msg i 20 = "synthetic LP failure" || go (i + 1))
         in
         go 0)
  | None -> Alcotest.fail "lp_error must be set");
  Alcotest.(check int) "counted under sweep.lp_errors" (before + 1)
    (Flowsched_obs.Metrics.counter_value c);
  Alcotest.(check bool) "heuristics still measured" true (r.Experiment.per_policy <> []);
  (* The degraded cell still round-trips byte-identically through the
     checkpoint encoders: lp_error as a string, nan bounds as null. *)
  let j = Report.sweep_cell_json r in
  match Report.sweep_result_of_json ~sweep:cell j with
  | Ok r' ->
      Alcotest.(check string) "re-encode byte-identical" (Json.to_string j)
        (Json.to_string (Report.sweep_cell_json r'))
  | Error e -> Alcotest.failf "degraded cell does not decode: %s" e

let test_sweep_unknown_workload_rejected () =
  let bad = { (List.hd sweep_cells) with Experiment.workload = "fractal" } in
  Alcotest.(check bool) "raises Invalid_argument" true
    (match Experiment.sweep_instance bad with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* test_sim names no module of lib/scenarios, so this also checks that
   sweep cells resolve zoo and parameterized kinds with nothing else
   linked. *)
let test_sweep_resolves_every_kind () =
  List.iter
    (fun workload ->
      let cell = { (List.hd sweep_cells) with Experiment.workload; horizon = 6; max_demand = 3 } in
      let spec =
        {
          Scenario.kind = Scenario.of_string_exn workload;
          m = cell.Experiment.ports;
          rate = cell.Experiment.arrival_rate;
          rounds = cell.Experiment.horizon;
          max_demand = cell.Experiment.max_demand;
          seed = cell.Experiment.sweep_seed;
        }
      in
      Alcotest.(check string) workload
        (Instance.to_string (Scenario.instance spec))
        (Instance.to_string (Experiment.sweep_instance cell)))
    [ "pareto:1.5"; "staircase"; "skewed:1.2" ]

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_workload_poisson_counts;
        prop_generators_match_reference;
        prop_engine_matches_offline_fifo;
        prop_inline_equals_fork;
      ]
  in
  Alcotest.run "flowsched_sim"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_poisson_deterministic;
          Alcotest.test_case "shape" `Quick test_poisson_shape;
          Alcotest.test_case "mean count" `Slow test_poisson_mean_count;
          Alcotest.test_case "with demands" `Quick test_poisson_with_demands;
          Alcotest.test_case "uniform total" `Quick test_uniform_total;
        ] );
      ( "streams",
        [
          Alcotest.test_case "uniform prefix = batch" `Quick test_stream_prefix_uniform;
          Alcotest.test_case "demands prefix = batch" `Quick test_stream_prefix_demands;
          Alcotest.test_case "skewed prefix = batch" `Quick test_stream_prefix_skewed;
          Alcotest.test_case "hotspot prefix = batch" `Quick test_stream_prefix_hotspot;
          Alcotest.test_case "horizon exceeded is typed" `Quick test_horizon_exceeded;
        ] );
      ( "adaptive-engine",
        [
          Alcotest.test_case "sequential ids" `Quick test_adaptive_ids_sequential;
          Alcotest.test_case "arrival cutoff" `Quick test_adaptive_stops_arrivals;
          Alcotest.test_case "adversary sees queue" `Quick test_adaptive_sees_pending;
          Alcotest.test_case "rejects bad specs" `Quick test_adaptive_rejects_bad_specs;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "cell without lp" `Quick test_run_cell_without_lp;
          Alcotest.test_case "cell with lp" `Quick test_run_cell_with_lp;
          Alcotest.test_case "fig6 grid layout" `Quick test_fig6_grid_layout;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables" `Quick test_report_tables;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "grid parallel = sequential" `Quick
            test_run_grid_parallel_identical;
          Alcotest.test_case "sweep deterministic across jobs" `Quick
            test_sweep_deterministic_across_jobs;
          Alcotest.test_case "sweep artifact round-trip" `Quick test_sweep_artifact_roundtrip;
          Alcotest.test_case "lp failure degrades gracefully" `Quick
            test_lp_failure_degrades_gracefully;
          Alcotest.test_case "sweep unknown workload" `Quick
            test_sweep_unknown_workload_rejected;
          Alcotest.test_case "sweep resolves every kind" `Quick
            test_sweep_resolves_every_kind;
        ] );
      ("properties", props);
    ]
