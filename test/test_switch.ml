(* Tests for flowsched_switch: flows, instances, serialization, schedules,
   metrics, backlog measurements. *)

open Flowsched_switch

let mk_inst ?cap_in ?cap_out ~m ~m' specs = Instance.of_flows ?cap_in ?cap_out ~m ~m' specs

(* --- flow --- *)

let test_flow_defaults () =
  let f = Flow.make ~id:0 ~src:1 ~dst:2 () in
  Alcotest.(check int) "demand" 1 f.Flow.demand;
  Alcotest.(check int) "release" 0 f.Flow.release

let test_flow_compare () =
  let a = Flow.make ~id:3 ~src:0 ~dst:0 ~release:1 () in
  let b = Flow.make ~id:1 ~src:0 ~dst:0 ~release:2 () in
  let c = Flow.make ~id:2 ~src:0 ~dst:0 ~release:1 () in
  Alcotest.(check bool) "release order" true (Flow.compare a b < 0);
  Alcotest.(check bool) "id breaks ties" true (Flow.compare c a < 0)

(* --- instance --- *)

let test_instance_create () =
  let inst = mk_inst ~m:2 ~m':3 [ (0, 0, 1, 0); (1, 2, 1, 4) ] in
  Alcotest.(check int) "n" 2 (Instance.n inst);
  Alcotest.(check int) "dmax" 1 (Instance.dmax inst);
  Alcotest.(check int) "last release" 4 (Instance.last_release inst);
  Alcotest.(check int) "total demand" 2 (Instance.total_demand inst);
  Alcotest.(check bool) "horizon big enough" true
    (Instance.horizon inst > Instance.last_release inst + Instance.n inst - 1)

let test_instance_validation () =
  let raises msg f = Alcotest.check_raises "invalid" (Invalid_argument msg) f in
  raises "Instance: src out of range" (fun () -> ignore (mk_inst ~m:1 ~m':1 [ (1, 0, 1, 0) ]));
  raises "Instance: dst out of range" (fun () -> ignore (mk_inst ~m:1 ~m':1 [ (0, 5, 1, 0) ]));
  raises "Instance: demand must be >= 1" (fun () -> ignore (mk_inst ~m:1 ~m':1 [ (0, 0, 0, 0) ]));
  raises "Instance: release must be >= 0" (fun () -> ignore (mk_inst ~m:1 ~m':1 [ (0, 0, 1, -1) ]));
  raises "Instance: demand exceeds kappa (min port capacity)" (fun () ->
      ignore (mk_inst ~cap_in:[| 1 |] ~cap_out:[| 5 |] ~m:1 ~m':1 [ (0, 0, 3, 0) ]));
  raises "Instance: capacities must be positive" (fun () ->
      ignore (mk_inst ~cap_in:[| 0 |] ~m:1 ~m':1 []))

let test_instance_kappa_and_scaling () =
  let inst = mk_inst ~cap_in:[| 2; 4 |] ~cap_out:[| 3 |] ~m:2 ~m':1 [ (1, 0, 2, 0) ] in
  Alcotest.(check int) "kappa" 3 (Instance.kappa inst inst.Instance.flows.(0));
  let aug = Instance.scale_capacities inst ~mult:2 ~add:1 in
  Alcotest.(check (array int)) "cap_in scaled" [| 5; 9 |] aug.Instance.cap_in;
  Alcotest.(check (array int)) "cap_out scaled" [| 7 |] aug.Instance.cap_out

let test_instance_roundtrip () =
  let inst =
    mk_inst ~cap_in:[| 2; 1 |] ~cap_out:[| 1; 3 |] ~m:2 ~m':2
      [ (0, 1, 2, 0); (1, 0, 1, 3); (0, 0, 1, 1) ]
  in
  match Instance.of_string (Instance.to_string inst) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok inst' ->
      Alcotest.(check int) "m" inst.Instance.m inst'.Instance.m;
      Alcotest.(check (array int)) "cap_in" inst.Instance.cap_in inst'.Instance.cap_in;
      Alcotest.(check int) "flows" (Instance.n inst) (Instance.n inst');
      Alcotest.(check bool) "flow data" true
        (Array.for_all2
           (fun (a : Flow.t) (b : Flow.t) ->
             a.Flow.src = b.Flow.src && a.Flow.dst = b.Flow.dst
             && a.Flow.demand = b.Flow.demand && a.Flow.release = b.Flow.release)
           inst.Instance.flows inst'.Instance.flows)

let test_instance_parse_errors () =
  (match Instance.of_string "flow 0 0 1 0\n" with
  | Error "missing switch line" -> ()
  | _ -> Alcotest.fail "expected missing switch error");
  (match Instance.of_string "switch 1 1\nflow 0 0\n" with
  | Error msg ->
      Alcotest.(check bool) "mentions line" true
        (String.length msg > 0 && String.sub msg 0 4 = "line")
  | Ok _ -> Alcotest.fail "expected parse error");
  match Instance.of_string "switch 1 1\n# comment\n\nflow 0 0 1 0\n" with
  | Ok inst -> Alcotest.(check int) "comments ignored" 1 (Instance.n inst)
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* --- schedule --- *)

let simple_inst () =
  (* 2x2 unit switch, three unit flows *)
  mk_inst ~m:2 ~m':2 [ (0, 0, 1, 0); (1, 1, 1, 0); (0, 1, 1, 1) ]

let test_schedule_valid () =
  let inst = simple_inst () in
  let s = Schedule.make [| 0; 0; 1 |] in
  Alcotest.(check bool) "valid" true (Schedule.is_valid inst s);
  Alcotest.(check int) "makespan" 2 (Schedule.makespan s);
  Alcotest.(check (array int)) "responses" [| 1; 1; 1 |] (Schedule.response_times inst s);
  Alcotest.(check int) "total" 3 (Schedule.total_response inst s);
  Alcotest.(check (float 1e-9)) "avg" 1. (Schedule.average_response inst s);
  Alcotest.(check int) "max" 1 (Schedule.max_response inst s)

let test_schedule_violations () =
  let inst = simple_inst () in
  (* flows 0 and 2 share input port 0 *)
  let overloaded = Schedule.make [| 1; 0; 1 |] in
  (match Schedule.validate inst overloaded with
  | Error msg ->
      Alcotest.(check bool) "mentions overload" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected overload");
  (* flow 2 released at 1 cannot run at 0 *)
  let early = Schedule.make [| 0; 0; 0 |] in
  (match Schedule.validate inst early with
  | Error msg ->
      Alcotest.(check bool) "mentions release" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected release violation");
  let partial = Schedule.unassigned 3 in
  match Schedule.validate inst partial with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected unassigned error"

let test_schedule_builder () =
  let s = Schedule.unassigned 2 in
  Alcotest.(check bool) "incomplete" false (Schedule.is_complete s);
  Schedule.assign s 0 3;
  Schedule.assign s 1 1;
  Alcotest.(check bool) "complete" true (Schedule.is_complete s);
  Alcotest.(check int) "round of 0" 3 (Schedule.round_of s 0);
  Alcotest.(check int) "makespan" 4 (Schedule.makespan s)

let test_schedule_overflow () =
  let inst = simple_inst () in
  let s = Schedule.make [| 1; 1; 1 |] in
  (* port 0-in carries flows 0 and 2 at round 1: load 2 vs cap 1 *)
  Alcotest.(check int) "overflow 1" 1 (Schedule.port_overflow inst s);
  let ok = Schedule.make [| 0; 0; 1 |] in
  Alcotest.(check int) "no overflow" 0 (Schedule.port_overflow inst ok)

let test_interval_excess () =
  (* Single port pair; 3 unit flows all at round 0 on a unit switch:
     interval [0,0] has load 3, excess 2. *)
  let inst = mk_inst ~m:1 ~m':1 [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 0) ] in
  let s = Schedule.make [| 0; 0; 0 |] in
  Alcotest.(check int) "excess" 2 (Schedule.max_interval_excess inst s);
  (* Spread out: rounds 0,1,2 -> each round exactly at capacity, excess 0. *)
  let spread = Schedule.make [| 0; 1; 2 |] in
  Alcotest.(check int) "no excess" 0 (Schedule.max_interval_excess inst spread);
  (* Two at round 0, one at round 2: the interval [0,0] has excess 1, and
     [0,2] has load 3 - 3 = 0; Kadane must find 1. *)
  let mixed = Schedule.make [| 0; 0; 2 |] in
  Alcotest.(check int) "interval excess found" 1 (Schedule.max_interval_excess inst mixed)

let test_flows_per_round () =
  let inst = simple_inst () in
  let s = Schedule.make [| 0; 0; 1 |] in
  let rounds = Schedule.flows_per_round inst s in
  Alcotest.(check (list int)) "round 0" [ 0; 1 ] rounds.(0);
  Alcotest.(check (list int)) "round 1" [ 2 ] rounds.(1)

(* --- properties --- *)

let gen_instance_and_schedule =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* m = int_range 1 5 in
    let* n = int_range 1 12 in
    return (seed, m, n))

let random_instance seed m n =
  let g = Flowsched_util.Prng.create seed in
  let specs =
    List.init n (fun _ ->
        ( Flowsched_util.Prng.int g m,
          Flowsched_util.Prng.int g m,
          1,
          Flowsched_util.Prng.int g 5 ))
  in
  mk_inst ~m ~m':m specs

let prop_serial_schedule_valid =
  QCheck2.Test.make ~name:"serial schedule is always valid" ~count:300 gen_instance_and_schedule
    (fun (seed, m, n) ->
      let inst = random_instance seed m n in
      (* schedule flow i at round last_release + i: serial, trivially feasible *)
      let base = Instance.last_release inst in
      let s = Schedule.make (Array.init n (fun i -> base + i)) in
      Schedule.is_valid inst s && Schedule.makespan s <= Instance.horizon inst)

let prop_roundtrip_serialization =
  QCheck2.Test.make ~name:"instance text round-trip" ~count:200 gen_instance_and_schedule
    (fun (seed, m, n) ->
      let inst = random_instance seed m n in
      match Instance.of_string (Instance.to_string inst) with
      | Error _ -> false
      | Ok inst' ->
          Instance.n inst = Instance.n inst'
          && Array.for_all2
               (fun (a : Flow.t) (b : Flow.t) ->
                 a.Flow.src = b.Flow.src && a.Flow.dst = b.Flow.dst
                 && a.Flow.demand = b.Flow.demand && a.Flow.release = b.Flow.release)
               inst.Instance.flows inst'.Instance.flows)

let prop_total_response_consistent =
  QCheck2.Test.make ~name:"total = sum of responses = n * avg" ~count:200
    gen_instance_and_schedule (fun (seed, m, n) ->
      let inst = random_instance seed m n in
      let base = Instance.last_release inst in
      let s = Schedule.make (Array.init n (fun i -> base + i)) in
      let total = Schedule.total_response inst s in
      let rts = Schedule.response_times inst s in
      total = Array.fold_left ( + ) 0 rts
      && abs_float (Schedule.average_response inst s -. (float_of_int total /. float_of_int n))
         < 1e-9
      && Array.for_all (fun rt -> rt >= 1) rts)

let prop_parser_total =
  QCheck2.Test.make ~name:"Instance.of_string: mutants give Ok or Error" ~count:500
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      int_bound 1_000_000 >>= fun seed ->
      Fuzz.mutant (Instance.to_string (Reference.capacitated_instance seed)))
    (Fuzz.total ~what:"Instance.of_string" Instance.of_string)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_serial_schedule_valid;
        prop_roundtrip_serialization;
        prop_total_response_consistent;
        prop_parser_total;
      ]
  in
  Alcotest.run "flowsched_switch"
    [
      ( "flow",
        [
          Alcotest.test_case "defaults" `Quick test_flow_defaults;
          Alcotest.test_case "compare" `Quick test_flow_compare;
        ] );
      ( "instance",
        [
          Alcotest.test_case "create" `Quick test_instance_create;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "kappa and scaling" `Quick test_instance_kappa_and_scaling;
          Alcotest.test_case "text round-trip" `Quick test_instance_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_instance_parse_errors;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "valid schedule + metrics" `Quick test_schedule_valid;
          Alcotest.test_case "violations detected" `Quick test_schedule_violations;
          Alcotest.test_case "builder" `Quick test_schedule_builder;
          Alcotest.test_case "port overflow" `Quick test_schedule_overflow;
          Alcotest.test_case "interval excess (Kadane)" `Quick test_interval_excess;
          Alcotest.test_case "flows per round" `Quick test_flows_per_round;
        ] );
      ("properties", props);
    ]
