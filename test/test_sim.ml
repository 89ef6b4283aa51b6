(* Tests for the simulator layer: workload generation, adaptive engine
   plumbing, the grid cell, its checkpoint encoding, and report
   rendering. *)

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

(* --- the grid cell --- *)

let cell ?(mode = Matrix.Flows) ?(lp = true) ?(m = 4) ?(rate = 2.0) ?(rounds = 4)
    ?(max_demand = 2) workload seed =
  {
    Experiment.workload;
    spec = { Scenario.kind = Scenario.of_string_exn workload; m; rate; rounds; max_demand; seed };
    mode;
    lp;
  }

let test_run_cell_without_lp () =
  let r =
    Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
      (cell ~lp:false ~rounds:5 "poisson" 11)
  in
  let b = r.Experiment.bound in
  Alcotest.(check bool) "instance not empty" true (r.Experiment.flows > 0);
  Alcotest.(check int) "three policies" 3 (List.length r.Experiment.entries);
  Alcotest.(check string) "no bound" "none" b.Experiment.kind;
  Alcotest.(check bool) "lp skipped" true
    (Float.is_nan b.Experiment.avg && Float.is_nan b.Experiment.max && b.Experiment.lp_counters = None);
  List.iter
    (fun (e : Experiment.entry) -> Alcotest.(check bool) "avg >= 1" true (e.Experiment.art >= 1.))
    r.Experiment.entries

let test_run_cell_with_lp () =
  let r =
    Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
      (cell ~m:3 ~rate:1.5 "poisson" 5)
  in
  let b = r.Experiment.bound in
  Alcotest.(check string) "lp bound" "lp" b.Experiment.kind;
  Alcotest.(check bool) "lp bound computed" true (not (Float.is_nan b.Experiment.avg));
  Alcotest.(check bool) "lp max bound computed" true (not (Float.is_nan b.Experiment.max));
  Alcotest.(check bool) "pivots counted" true
    (match b.Experiment.lp_counters with
    | Some c -> Flowsched_obs.Metrics.counter_in c "simplex.solves" > 0
    | None -> false);
  (* Lemma 3.1/relaxation: bounds sit below every heuristic *)
  List.iter
    (fun (e : Experiment.entry) ->
      Alcotest.(check bool) (e.Experiment.name ^ " above avg LP") true
        (e.Experiment.art >= b.Experiment.avg -. 1e-6);
      Alcotest.(check bool) (e.Experiment.name ^ " above max LP") true
        (float_of_int e.Experiment.mrt >= b.Experiment.max -. 1e-6))
    r.Experiment.entries

let test_fig6_grid_layout () =
  let rows =
    Experiment.fig6_grid ~m:6 ~tries:2 ~lp_rounds_limit:8 ~congestion:[ 0.5; 1.0 ]
      ~rounds:[ 6; 8; 12 ] ()
  in
  Alcotest.(check int) "rows" 6 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "one cell per try" 2 (List.length row);
      let seed0 = (List.hd row).Experiment.spec.Scenario.seed in
      List.iteri
        (fun i (c : Experiment.cell) ->
          let s = c.Experiment.spec in
          Alcotest.(check bool) "lp flag respects limit" true
            (c.Experiment.lp = (s.Scenario.rounds <= 8));
          Alcotest.(check bool) "rate scales with m" true
            (s.Scenario.rate = 3.0 || s.Scenario.rate = 6.0);
          Alcotest.(check int) "tries seeded 1000 apart" (seed0 + (1000 * i)) s.Scenario.seed)
        row)
    rows;
  Alcotest.(check bool) "no tries rejected" true
    (match Experiment.fig6_grid ~tries:0 ~congestion:[ 1. ] ~rounds:[ 6 ] () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A figures row averages its tries, so a try whose LP failed must fail the
   run instead of averaging a nan into the row. *)
let test_figures_lp_failure_fails_run () =
  let rows = Experiment.fig6_grid ~m:3 ~tries:2 ~congestion:[ 1. ] ~rounds:[ 4 ] () in
  Experiment.lp_failure_for_tests := Some (Failure "synthetic LP failure");
  Alcotest.(check bool) "raises Failure" true
    (Fun.protect
       ~finally:(fun () -> Experiment.lp_failure_for_tests := None)
       (fun () ->
         match Experiment.run_grid ~policies:[ Heuristics.maxcard ] rows with
         | _ -> false
         | exception Failure _ -> true))

(* --- report --- *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_report_tables () =
  let rows =
    Experiment.run_grid ~policies:Heuristics.all_paper_heuristics
      (Experiment.fig6_grid ~m:3 ~tries:2 ~seed:3 ~lp_rounds_limit:4
         ~congestion:[ 1. /. 3.; 1. ] ~rounds:[ 4; 5 ] ())
  in
  let f6 = Report.fig6_table rows and f7 = Report.fig7_table rows in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in fig6") true (contains f6 name);
      Alcotest.(check bool) (name ^ " in fig7") true (contains f7 name))
    [ "MaxCard"; "MinRTime"; "MaxWeight"; "LP bound" ];
  Alcotest.(check bool) "lp-less row rendered with dashes" true (contains f6 "-")

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
        let results = Experiment.run ~policies ~jobs cells in
        let counters = algorithmic_counters (Metrics.diff (Metrics.snapshot ()) before) in
        let artifact =
          Flowsched_util.Json.to_string
            (Report.sweep_json ~jobs:1 (List.map Experiment.strip_timing results))
        in
        (artifact, counters)
      in
      List.for_all
        (fun (seed, ncells, horizon) ->
          let cells =
            List.init ncells (fun i ->
                cell ~rounds:horizon ~max_demand:3
                  (if (seed + i) mod 2 = 0 then "poisson" else "uniform")
                  (seed + (31 * i)))
          in
          let inline_artifact, inline_counters = run 1 cells in
          let fork_artifact, fork_counters = run 4 cells in
          if inline_artifact <> fork_artifact then
            QCheck2.Test.fail_reportf "seed %d: fork artifact differs from inline" seed;
          if inline_counters <> fork_counters then
            QCheck2.Test.fail_reportf "seed %d: fork counter totals differ from inline" seed;
          true)
        specs)

(* A Figure 6/7 row of grid cells, averaged by Report, must render the
   bytes of the per-try loop that computed rows before the one grid cell
   (Reference.Figures): 1-4 tries (their means fold newest first, which
   only matters from three tries on), LP on and off, and congestions low
   enough that some tries draw an empty instance and drop out of the
   means. *)
let prop_figures_rows_match_reference =
  QCheck2.Test.make ~name:"figures rows = per-try loop reference" ~count:60
    ~print:(fun (m, c, rounds, tries, seed, lp) ->
      Printf.sprintf "m=%d congestion=%h rounds=%d tries=%d seed=%d lp=%b" m c rounds tries seed lp)
    QCheck2.Gen.(
      let* m = int_range 1 4
      and* c = oneof [ float_range 0.02 0.3; float_range 0.3 2. ]
      and* rounds = int_range 1 6
      and* tries = int_range 1 4
      and* seed = int_bound 1_000_000
      and* lp = bool in
      return (m, c, rounds, tries, seed, lp))
    (fun (m, c, rounds, tries, seed, lp) ->
      let policies = Heuristics.all_paper_heuristics in
      let lp_rounds_limit = if lp then rounds else rounds - 1 in
      let module R = Reference.Figures in
      let old =
        List.map (R.run_cell ~policies)
          (R.fig6_grid ~m ~tries ~seed ~lp_rounds_limit ~congestion:[ c ] ~rounds:[ rounds ] ())
      in
      let rows =
        Experiment.run_grid ~policies
          (Experiment.fig6_grid ~m ~tries ~seed ~lp_rounds_limit ~congestion:[ c ]
             ~rounds:[ rounds ] ())
      in
      let json f x = Flowsched_util.Json.to_string (f x) in
      json (R.figures_json ~jobs:2) old = json (Report.figures_json ~jobs:2) rows
      && R.fig6_table old = Report.fig6_table rows
      && R.fig7_table old = Report.fig7_table rows)

(* The one decoder at the checkpoint trust boundary.  Random results of
   every mode, with nan bounds, an LP error or none and LP counters or
   none, must re-encode to their own bytes; every truncation of an
   encoding, every dropped field, every retyped value and every non-object
   entry must decode to [Error], never raise. *)
let prop_decoder_rejects_mutations =
  let module J = Flowsched_util.Json in
  let module M = Flowsched_obs.Metrics in
  let gen_result =
    let open QCheck2.Gen in
    let maybe_nan g = oneof [ return nan; g ] in
    let counter n = map (Option.map (fun v -> ("simplex." ^ n, M.Counter v))) (opt (int_range 1 9999)) in
    let gauge n = map (Option.map (fun v -> ("simplex." ^ n, M.Gauge v))) (opt (float_range 1e-6 2.)) in
    let lp_counters =
      map
        (fun xs -> List.sort compare (List.filter_map Fun.id xs))
        (flatten_l
           (List.map counter
              [
                "solves"; "pivots"; "ftran_calls"; "refactorizations"; "full_pricing_scans";
                "partial_pricing_rounds"; "warm_attempts"; "warm_accepted"; "phase1_skipped";
                "basis_nnz"; "factor_nnz"; "eta_nnz"; "bound_flips";
              ]
           @ List.map gauge [ "phase1_seconds"; "phase2_seconds" ]))
    in
    let entry =
      map3
        (fun name art mrt -> { Experiment.name; art; mrt })
        (oneofl [ "MaxCard"; "fifo-endpoint"; "wsebf" ])
        (maybe_nan (float_range 1. 40.))
        (int_bound 60)
    in
    let* workload = oneofl [ "poisson"; "pareto"; "pareto:1.5"; "uniform"; "bursty:4:10:0.3" ]
    and* mode =
      oneofl
        [
          Matrix.Flows;
          Matrix.Endpoint { nodes = 2; node_cap = 3 };
          Matrix.Coflow { groups = 4; max_weight = 2 };
        ]
    and* m = int_range 1 9
    and* rate = float_range 0.1 50.
    and* rounds = int_range 1 30
    and* seed = int_bound 1_000_000
    and* lp = bool
    and* flows = int_bound 500
    and* entries = list_size (int_range 1 4) entry
    and* kind = oneofl [ "lp"; "lp-relaxed"; "bottleneck"; "none" ]
    and* avg = maybe_nan (float_range 0. 40.)
    and* max = maybe_nan (float_range 0. 40.)
    and* error = opt (oneofl [ "Failure(\"synthetic LP failure\")"; "Iteration_limit(5000)" ])
    and* lp_counters = opt lp_counters
    and* wall_s = float_range 0. 5. in
    return
      {
        Experiment.cell = cell ~mode ~lp ~m ~rate ~rounds workload seed;
        flows;
        entries;
        bound = { Experiment.kind; avg; max; error; lp_counters };
        wall_s;
      }
  in
  let retype = function J.Bool _ -> J.Int 1 | _ -> J.Bool true in
  (* Every single-value mutation of a JSON tree: each object field dropped
     or retyped, each array element made a non-object, recursively. *)
  let rec mutants = function
    | J.Obj fields ->
        List.concat
          (List.mapi
             (fun i (_, v) ->
               let set v' = J.Obj (List.mapi (fun i' (k', v0) -> (k', if i' = i then v' else v0)) fields) in
               (J.Obj (List.filteri (fun i' _ -> i' <> i) fields) :: set (retype v)
               :: List.map set (mutants v)))
             fields)
    | J.Arr items ->
        List.concat
          (List.mapi
             (fun i v ->
               let set v' = J.Arr (List.mapi (fun i' v0 -> if i' = i then v' else v0) items) in
               List.map set ([ J.Int 3; J.Str "x"; J.Arr []; J.Null ] @ mutants v))
             items)
    | _ -> []
  in
  QCheck2.Test.make ~name:"one decoder: mutants give Error, encodings round-trip" ~count:150
    ~print:(fun r -> J.to_string ~pretty:false (Checkpoint.encode r))
    gen_result
    (fun r ->
      let c = r.Experiment.cell in
      let j = Checkpoint.encode r in
      let s = J.to_string ~pretty:false j in
      let rejected j = match Checkpoint.decode c j with Error _ -> true | Ok _ -> false in
      (match Checkpoint.decode c j with
      | Ok r' -> J.to_string ~pretty:false (Checkpoint.encode r') = s
      | Error e -> QCheck2.Test.fail_reportf "own encoding rejected: %s" e)
      && List.for_all rejected (J.Int 0 :: J.Arr [ j ] :: mutants j)
      && List.for_all
           (fun k ->
             match J.parse (String.sub s 0 k) with Error _ -> true | Ok j -> rejected j)
           (List.init (String.length s) Fun.id))

(* --- parallel grids and the sweep artifact --- *)

let test_run_grid_parallel_identical () =
  let grid =
    Experiment.fig6_grid ~m:4 ~tries:2 ~seed:9 ~lp_rounds_limit:4 ~congestion:[ 0.5; 1. ]
      ~rounds:[ 3; 4 ] ()
  in
  let policies = Heuristics.all_paper_heuristics in
  let seq = Experiment.run_grid ~policies ~jobs:1 grid in
  let par = Experiment.run_grid ~policies ~jobs:3 grid in
  let strip = List.map (List.map Experiment.strip_timing) in
  Alcotest.(check int) "same row count" (List.length seq) (List.length par);
  Alcotest.(check bool) "identical results in job order" true (strip seq = strip par);
  Alcotest.(check string) "identical fig6 table" (Report.fig6_table seq)
    (Report.fig6_table par);
  Alcotest.(check string) "identical fig7 table" (Report.fig7_table seq)
    (Report.fig7_table par)

let sweep_cells =
  Result.get_ok
    (Experiment.grid ~kinds:[ "poisson"; "uniform" ] ~modes:[ Matrix.Flows ] ~m:4 ~rates:[ 2.0 ]
       ~rounds:[ 4 ] ~max_demand:2 ~seeds:[ 1; 2 ] ~lp:true)

let test_sweep_deterministic_across_jobs () =
  let policies = [ Heuristics.maxcard; Heuristics.maxweight ] in
  (* Discrete LP counters (pivots, warm accepts, ...) must be identical
     across job counts too; only the timing fields are nondeterministic. *)
  let strip_wall = Experiment.strip_timing in
  let seq = List.map strip_wall (Experiment.run ~policies ~jobs:1 sweep_cells) in
  let par = List.map strip_wall (Experiment.run ~policies ~jobs:3 sweep_cells) in
  Alcotest.(check bool) "sweep results identical up to wall-clock" true (seq = par)

let test_sweep_artifact_roundtrip () =
  let open Flowsched_util in
  let policies = [ Heuristics.maxcard; Heuristics.minrtime ] in
  let results = Experiment.run ~policies ~jobs:2 sweep_cells in
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
    (fun (r : Experiment.result) cell ->
      Alcotest.(check (option string)) "workload" (Some r.Experiment.cell.Experiment.workload)
        (Option.bind (Json.member "workload" cell) Json.to_string_opt);
      Alcotest.(check (option int)) "flows" (Some r.Experiment.flows)
        (Option.bind (Json.member "flows" cell) Json.to_int_opt);
      let pols = Json.to_list (Option.value ~default:Json.Null (Json.member "policies" cell)) in
      Alcotest.(check int) "per-policy entries" (List.length r.Experiment.entries)
        (List.length pols);
      List.iter2
        (fun (p : Experiment.entry) pj ->
          Alcotest.(check (option string)) "policy name" (Some p.Experiment.name)
            (Option.bind (Json.member "name" pj) Json.to_string_opt);
          (match Option.bind (Json.member "avg_response" pj) Json.to_float_opt with
          | Some art -> Alcotest.(check (float 1e-9)) "ART round-trips" p.Experiment.art art
          | None -> Alcotest.(check bool) "nan ART serialized as null" true (Float.is_nan p.Experiment.art));
          Alcotest.(check (option int)) "MRT round-trips" (Some p.Experiment.mrt)
            (Option.bind (Json.member "max_response" pj) Json.to_int_opt))
        r.Experiment.entries pols;
      let lp_avg = r.Experiment.bound.Experiment.avg in
      match Option.bind (Json.member "lp_avg_bound" cell) Json.to_float_opt with
      | Some lp -> Alcotest.(check (float 1e-9)) "LP bound round-trips" lp_avg lp
      | None -> Alcotest.(check bool) "nan LP serialized as null" true (Float.is_nan lp_avg))
    results cells

(* The LP section is shared by the Flows and Endpoint modes: a failure in
   either degrades the cell's bound and counts once under sweep.lp_errors. *)
let test_lp_failure_degrades_gracefully () =
  let open Flowsched_util in
  let policies = [ Heuristics.maxcard ] in
  let c = Flowsched_obs.Metrics.counter "sweep.lp_errors" in
  List.iter
    (fun (cell : Experiment.cell) ->
      let mode = Matrix.mode_to_string cell.Experiment.mode in
      let before = Flowsched_obs.Metrics.counter_value c in
      Experiment.lp_failure_for_tests := Some (Failure "synthetic LP failure");
      let r =
        Fun.protect
          ~finally:(fun () -> Experiment.lp_failure_for_tests := None)
          (fun () -> Experiment.run_cell ~policies cell)
      in
      let b = r.Experiment.bound in
      Alcotest.(check bool) (mode ^ ": both bounds degrade to nan") true
        (Float.is_nan b.Experiment.avg && Float.is_nan b.Experiment.max);
      (match b.Experiment.error with
      | Some msg ->
          Alcotest.(check bool) (mode ^ ": error text preserved") true
            (contains msg "synthetic LP failure")
      | None -> Alcotest.fail "the bound's error must be set");
      Alcotest.(check int) (mode ^ ": counted under sweep.lp_errors") (before + 1)
        (Flowsched_obs.Metrics.counter_value c);
      Alcotest.(check bool) (mode ^ ": heuristics still measured") true
        (r.Experiment.entries <> []);
      (* The degraded cell still round-trips byte-identically through the
         checkpoint encoding: the error as a string, nan bounds as null. *)
      let j = Checkpoint.encode r in
      match Checkpoint.decode cell j with
      | Ok r' ->
          Alcotest.(check string) (mode ^ ": re-encode byte-identical") (Json.to_string j)
            (Json.to_string (Checkpoint.encode r'))
      | Error e -> Alcotest.failf "%s: degraded cell does not decode: %s" mode e)
    [ List.hd sweep_cells; { (List.hd sweep_cells) with mode = Matrix.Endpoint { nodes = 2; node_cap = 2 } } ]

let test_sweep_unknown_workload_rejected () =
  match
    Experiment.grid ~kinds:[ "poisson"; "fractal" ] ~modes:[ Matrix.Flows ] ~m:4 ~rates:[ 2.0 ]
      ~rounds:[ 4 ] ~max_demand:2 ~seeds:[ 1 ] ~lp:false
  with
  | Ok _ -> Alcotest.fail "an unknown kind must be rejected"
  | Error msg -> Alcotest.(check bool) "names the kind" true (contains msg "fractal")

(* test_sim names no module outside lib/sim, so this also checks that
   grid cells resolve zoo and parameterized kinds with nothing else
   linked. *)
let test_sweep_resolves_every_kind () =
  let kinds = [ "pareto:1.5"; "staircase"; "skewed:1.2" ] in
  let cells =
    Result.get_ok
      (Experiment.grid ~kinds ~modes:[ Matrix.Flows ] ~m:4 ~rates:[ 2.0 ] ~rounds:[ 6 ]
         ~max_demand:3 ~seeds:[ 1 ] ~lp:false)
  in
  List.iter2
    (fun workload (c : Experiment.cell) ->
      Alcotest.(check string) "kind string kept as given" workload c.Experiment.workload;
      Alcotest.(check string) (workload ^ " parsed")
        (Scenario.to_string (Scenario.of_string_exn workload))
        (Scenario.to_string c.Experiment.spec.Scenario.kind);
      let n = Instance.n (Scenario.instance c.Experiment.spec) in
      Alcotest.(check bool) (workload ^ " draws flows") true (n > 0);
      Alcotest.(check int) (workload ^ " runs") n
        (Experiment.run_cell ~policies:[ Heuristics.fifo ] c).Experiment.flows)
    kinds cells

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_workload_poisson_counts;
        prop_generators_match_reference;
        prop_engine_matches_offline_fifo;
        prop_inline_equals_fork;
        prop_figures_rows_match_reference;
        prop_decoder_rejects_mutations;
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
          Alcotest.test_case "figures LP failure fails the run" `Quick
            test_figures_lp_failure_fails_run;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables" `Quick test_report_tables;
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
