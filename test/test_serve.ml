(* Tests for the scheduler service: batch-engine parity on a 1e5-slot
   trace, byte-stability of the all-integer outcome, backpressure, and the
   behavioural contract of both scheduling cores. *)

open Flowsched_switch
open Flowsched_serve
module Engine = Flowsched_sim.Engine
module Workload = Flowsched_sim.Workload
module Heuristics = Flowsched_online.Heuristics
module Bmatching = Flowsched_bipartite.Bmatching
module Scenario = Flowsched_sim.Scenario

let stream_source ~m ~rate ~slots ~seed =
  Source.of_scenario
    { Scenario.kind = Scenario.Poisson; m; rate; rounds = slots; max_demand = 1; seed }
    ~horizon:slots

(* A 1e5-slot bounded-memory serve run must reproduce the batch engine's
   aggregate statistics on the same trace, for each matching policy.
   Policy-mode serve and Engine.drive keep the same pending queue
   (Policy.Pending: oldest first, release = slot of admission) and
   Source.of_instance replays the instance's flows at their release slots,
   so every streamed statistic must equal its batch counterpart exactly. *)
let test_serve_matches_engine () =
  let inst = Workload.poisson ~m:4 ~rate:2.0 ~rounds:100_000 ~seed:3 in
  List.iter
    (fun (p : Flowsched_online.Policy.t) ->
      let name what = p.Flowsched_online.Policy.name ^ " " ^ what in
      let r = Engine.run_instance ~max_rounds:300_000 p inst in
      let cfg = Server.config ~m:4 ~m':4 () in
      let o = Server.run cfg (Server.Policy p) (Source.of_instance inst) in
      Alcotest.(check int) (name "arrived") (Instance.n inst) o.Server.arrived;
      Alcotest.(check int) (name "completed") (Instance.n inst) o.Server.completed;
      Alcotest.(check int) (name "sum response")
        (Array.fold_left ( + ) 0 r.Engine.responses)
        o.Server.sum_response;
      Alcotest.(check int) (name "max response") (Engine.max_response r) o.Server.max_response;
      Alcotest.(check int) (name "makespan") r.Engine.makespan o.Server.makespan;
      Alcotest.(check int) (name "idle slots") r.Engine.rounds_idle o.Server.idle_slots;
      Alcotest.(check int) (name "nothing left") 0
        (o.Server.final_pending + o.Server.final_buffered);
      Alcotest.(check bool) (name "1e5 slots sustained") true (o.Server.slots >= 100_000))
    Heuristics.all_paper_heuristics

(* The outcome is all-integer, so a fixed seed must give byte-identical
   results even though status snapshots and metrics carry wall-clock time. *)
let test_byte_stable () =
  let run () =
    let cfg = Server.config ~m:6 ~m':6 () in
    Server.run cfg Server.Incremental (stream_source ~m:6 ~rate:4.0 ~slots:5_000 ~seed:9)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "outcomes identical" true (a = b);
  Alcotest.(check int) "drained" 0 a.Server.final_pending;
  Alcotest.(check bool) "completed everything" true
    (a.Server.completed = a.Server.arrived && a.Server.arrived > 0)

(* Backpressure: a tiny buffer and pending cap stall the source, but every
   generated flow is still eventually admitted and completed — the stream
   only advances when the server pulls, so nothing is dropped.  Checked on
   both cores; the Policy core's pending queue then sits at its cap, far
   below the backlog the stream would otherwise build. *)
let test_backpressure_lossless () =
  List.iter
    (fun core ->
      let constrained =
        let cfg = Server.config ~m:4 ~m':4 ~queue_cap:2 ~buffer_cap:1 () in
        Server.run cfg core (stream_source ~m:4 ~rate:3.5 ~slots:2_000 ~seed:17)
      in
      let unconstrained =
        let cfg = Server.config ~m:4 ~m':4 () in
        Server.run cfg core (stream_source ~m:4 ~rate:3.5 ~slots:2_000 ~seed:17)
      in
      Alcotest.(check bool) "source stalled" true (constrained.Server.stalled_slots > 0);
      Alcotest.(check bool) "backlog beyond the cap" true
        (unconstrained.Server.peak_pending > 2);
      Alcotest.(check int) "same flows arrive" unconstrained.Server.arrived
        constrained.Server.arrived;
      Alcotest.(check int) "all complete" constrained.Server.arrived
        constrained.Server.completed;
      Alcotest.(check bool) "queue cap respected" true (constrained.Server.peak_pending <= 2);
      Alcotest.(check int) "drained" 0
        (constrained.Server.final_pending + constrained.Server.final_buffered))
    [ Server.Incremental; Server.Policy Heuristics.maxweight ]

(* Both cores see the same seeded arrival stream and must drain it fully;
   their schedules may legitimately differ, their throughput may not. *)
let test_cores_agree_on_throughput () =
  let run core =
    let cfg = Server.config ~m:5 ~m':5 () in
    Server.run cfg core (stream_source ~m:5 ~rate:3.0 ~slots:3_000 ~seed:23)
  in
  let inc = run Server.Incremental in
  let pol = run (Server.Policy Heuristics.maxcard) in
  Alcotest.(check int) "same arrivals" pol.Server.arrived inc.Server.arrived;
  Alcotest.(check int) "incremental completes all" inc.Server.arrived inc.Server.completed;
  Alcotest.(check int) "policy completes all" pol.Server.arrived pol.Server.completed

(* Exactness of the incremental core: on every slot of a seeded stream its
   cardinality must equal a from-scratch Hopcroft-Karp over the same pending
   flows (unit capacities, where the per-flow reduction is exact).  The
   drain is bounded, so a core that stops matching fails here instead of
   looping forever. *)
let test_incremental_matches_hopcroft_karp () =
  List.iter
    (fun (label, kind, m, rate, slots, seed) ->
      let stream =
        match Scenario.stream { Scenario.kind; m; rate; rounds = slots; max_demand = 1; seed } with
        | Ok a -> a
        | Error msg -> Alcotest.fail msg
      in
      let inc =
        Bmatching.incremental ~nl:m ~nr:m ~cap_in:(Array.make m 1) ~cap_out:(Array.make m 1)
      in
      let live = Hashtbl.create 1024 in
      let next_id = ref 0 and checks = ref 0 and mismatches = ref 0 in
      while
        (Workload.slot stream < slots || Bmatching.Incremental.pending inc > 0)
        && !checks < 2 * slots
      do
        if Workload.slot stream < slots then
          List.iter
            (fun (src, dst, _demand) ->
              Bmatching.Incremental.add inc ~id:!next_id ~src ~dst;
              Hashtbl.add live !next_id (src, dst);
              incr next_id)
            (Workload.next stream);
        let edges = Array.of_list (Hashtbl.fold (fun _ sd acc -> sd :: acc) live []) in
        let scratch =
          Flowsched_bipartite.Matching.max_cardinality_size
            (Flowsched_bipartite.Bgraph.create ~nl:m ~nr:m edges)
        in
        incr checks;
        if Bmatching.Incremental.cardinality inc <> scratch then incr mismatches;
        List.iter (Hashtbl.remove live) (Bmatching.Incremental.take_matched inc)
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s: slots off Hopcroft-Karp (of %d)" label !checks)
        0 !mismatches;
      Alcotest.(check int) (label ^ ": drained") 0 (Bmatching.Incremental.pending inc))
    [
      ("poisson m=6 rate=4", Scenario.Poisson, 6, 4.0, 2_000, 5);
      ("hotspot m=8 rate=2 f=.3", Scenario.Hotspot 0.3, 8, 2.0, 1_500, 6);
    ]

(* max_slots is a hard stop: an overloaded run is cut at the cap and the
   leftovers are reported instead of silently discarded. *)
let test_max_slots_stops () =
  let cfg = Server.config ~m:4 ~m':4 ~max_slots:50 () in
  let o =
    Server.run cfg Server.Incremental (stream_source ~m:4 ~rate:6.0 ~slots:1_000 ~seed:5)
  in
  Alcotest.(check int) "stopped at cap" 50 o.Server.slots;
  Alcotest.(check bool) "leftovers reported" true
    (o.Server.final_pending + o.Server.final_buffered > 0)

(* Status snapshots fire every status_every slots with consistent counts. *)
let test_status_snapshots () =
  let statuses = ref [] in
  let cfg = Server.config ~m:4 ~m':4 ~status_every:25 () in
  let o =
    Server.run
      ~on_status:(fun s -> statuses := s :: !statuses)
      cfg Server.Incremental
      (stream_source ~m:4 ~rate:2.0 ~slots:200 ~seed:1)
  in
  let statuses = List.rev !statuses in
  Alcotest.(check bool) "snapshots emitted" true (List.length statuses >= 8);
  List.iter
    (fun (s : Server.status) ->
      Alcotest.(check int) "slot on the grid" 0 ((s.Server.slot + 1) mod 25);
      Alcotest.(check bool) "counts consistent" true (s.Server.completed <= s.Server.arrived))
    statuses;
  Alcotest.(check bool) "completed everything" true (o.Server.completed = o.Server.arrived)

(* The stop flag (the Signals interrupt path) closes the source, drains
   what the server already holds, and marks the outcome interrupted. *)
let test_stop_flag_drains () =
  let stop = ref false in
  let snapshots = ref 0 in
  let cfg = Server.config ~m:4 ~m':4 ~status_every:10 () in
  let o =
    Server.run
      ~on_status:(fun _ ->
        incr snapshots;
        if !snapshots = 3 then stop := true)
      ~stop cfg Server.Incremental
      (stream_source ~m:4 ~rate:2.0 ~slots:100_000 ~seed:2)
  in
  Alcotest.(check bool) "interrupted" true o.Server.interrupted;
  Alcotest.(check bool) "stopped early" true (o.Server.slots < 100_000);
  Alcotest.(check int) "pending drained" 0 o.Server.final_pending;
  Alcotest.(check int) "buffer drained" 0 o.Server.final_buffered

(* The incremental core is unit-demand only and must say so loudly. *)
let test_incremental_rejects_demands () =
  let cfg =
    Server.config ~cap_in:(Array.make 2 2) ~cap_out:(Array.make 2 2) ~m:2 ~m':2 ()
  in
  let src = Source.make ~more:(fun s -> s = 0) ~pull:(fun _ -> [ (0, 1, 2) ]) in
  Alcotest.check_raises "unit demands only"
    (Invalid_argument "Server.run: the Incremental core requires unit demands") (fun () ->
      ignore (Server.run cfg Server.Incremental src))

(* Capacities below 1 are rejected up front, as Instance.validate does: a
   zero-capacity port made the matching cores raise mid-run, and FIFO
   silently never served the flow. *)
let test_config_rejects_capacities () =
  let expected = Invalid_argument "Server.config: capacities must be positive" in
  Alcotest.check_raises "zero input capacity" expected (fun () ->
      ignore (Server.config ~cap_in:[| 0; 1 |] ~m:2 ~m':2 ()));
  Alcotest.check_raises "negative output capacity" expected (fun () ->
      ignore (Server.config ~cap_out:[| 1; -1 |] ~m:2 ~m':2 ()))

(* An arrival Instance.validate would reject is refused at admission, on
   either core, with the same message. *)
let check_rejected name spec message =
  let cfg = Server.config ~m:2 ~m':2 () in
  List.iter
    (fun (label, core) ->
      let src = Source.make ~more:(fun s -> s = 0) ~pull:(fun _ -> [ spec ]) in
      Alcotest.check_raises (name ^ ", " ^ label) (Invalid_argument message) (fun () ->
          ignore (Server.run cfg core src)))
    [ ("policy core", Server.Policy Heuristics.maxweight); ("incremental core", Server.Incremental) ]

let test_rejects_bad_endpoint () =
  check_rejected "source port 5 of 2" (5, 0, 1) "Instance: src out of range";
  check_rejected "negative destination" (0, -1, 1) "Instance: dst out of range"

let test_rejects_demand_above_capacity () =
  check_rejected "demand 2 on capacity 1" (0, 1, 2)
    "Instance: demand exceeds kappa (min port capacity)"

let test_rejects_zero_demand () =
  check_rejected "demand 0" (0, 1, 0) "Instance: demand must be >= 1"

(* The Policy core runs the batch engine's slot, checks included: three
   flows on one unit port in one slot is a violation here as there. *)
let test_policy_core_rejects_overfull_selection () =
  let everything =
    {
      Flowsched_online.Policy.name = "everything";
      select = (fun ctx -> List.init (Array.length ctx.Flowsched_online.Policy.queue) Fun.id);
    }
  in
  let src = Source.make ~more:(fun s -> s = 0) ~pull:(fun _ -> [ (0, 0, 1); (0, 0, 1); (0, 0, 1) ]) in
  match Server.run (Server.config ~m:2 ~m':2 ()) (Server.Policy everything) src with
  | _ -> Alcotest.fail "expected Engine.Policy_violation"
  | exception Engine.Policy_violation _ -> ()

let () =
  Alcotest.run "serve"
    [
      ( "engine-parity",
        [
          Alcotest.test_case "1e5-slot serve = batch replay" `Slow test_serve_matches_engine;
        ] );
      ( "server",
        [
          Alcotest.test_case "byte-stable outcome" `Quick test_byte_stable;
          Alcotest.test_case "backpressure lossless" `Quick test_backpressure_lossless;
          Alcotest.test_case "cores agree on throughput" `Quick
            test_cores_agree_on_throughput;
          Alcotest.test_case "incremental = Hopcroft-Karp every slot" `Quick
            test_incremental_matches_hopcroft_karp;
          Alcotest.test_case "max_slots hard stop" `Quick test_max_slots_stops;
          Alcotest.test_case "status snapshots" `Quick test_status_snapshots;
          Alcotest.test_case "stop flag drains" `Quick test_stop_flag_drains;
          Alcotest.test_case "incremental rejects demands" `Quick
            test_incremental_rejects_demands;
          Alcotest.test_case "config rejects capacities below 1" `Quick
            test_config_rejects_capacities;
          Alcotest.test_case "rejects endpoints off the switch" `Quick test_rejects_bad_endpoint;
          Alcotest.test_case "rejects demand above capacity" `Quick
            test_rejects_demand_above_capacity;
          Alcotest.test_case "rejects zero demand" `Quick test_rejects_zero_demand;
          Alcotest.test_case "policy core rejects an overfull selection" `Quick
            test_policy_core_rejects_overfull_selection;
        ] );
    ]
