(* Tests for the online policies and their theoretical properties: policy
   feasibility, heuristic behaviour, the Figure 4 lower bounds, and the
   AMRT competitive guarantee (Lemma 5.3). *)

open Flowsched_switch
open Flowsched_core
open Flowsched_online
open Flowsched_sim

let mk ~m specs = Instance.of_flows ~m ~m':m specs

let random_instance seed ~m ~n ~maxrel =
  let g = Flowsched_util.Prng.create seed in
  mk ~m
    (List.init n (fun _ ->
         ( Flowsched_util.Prng.int g m,
           Flowsched_util.Prng.int g m,
           1,
           Flowsched_util.Prng.int g (maxrel + 1) )))

let all_policies seed =
  Heuristics.all_paper_heuristics @ [ Heuristics.fifo; Heuristics.random_policy ~seed ]

(* --- engine basics --- *)

let test_engine_schedules_everything () =
  let inst = random_instance 3 ~m:4 ~n:20 ~maxrel:5 in
  List.iter
    (fun (p : Policy.t) ->
      let r = Engine.run_instance p inst in
      Alcotest.(check bool)
        (p.Policy.name ^ " complete") true
        (Schedule.is_complete r.Engine.schedule);
      Alcotest.(check bool)
        (p.Policy.name ^ " valid") true
        (Schedule.is_valid inst r.Engine.schedule);
      Array.iter
        (fun rt -> Alcotest.(check bool) "response >= 1" true (rt >= 1))
        r.Engine.responses)
    (all_policies 7)

let test_engine_rejects_bad_policy () =
  let cheating =
    {
      Policy.name = "cheater";
      select = (fun ctx -> List.init (Array.length ctx.Policy.queue) (fun i -> i));
    }
  in
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0) ] in
  (try
     ignore (Engine.run_instance cheating inst);
     Alcotest.fail "expected Policy_violation"
   with Engine.Policy_violation _ -> ());
  let out_of_range = { Policy.name = "oob"; select = (fun _ -> [ 99 ]) } in
  try
    ignore (Engine.run_instance out_of_range inst);
    Alcotest.fail "expected Policy_violation"
  with Engine.Policy_violation _ -> ()

let test_engine_stalls_detected () =
  let lazy_policy = { Policy.name = "lazy"; select = (fun _ -> []) } in
  let inst = mk ~m:1 [ (0, 0, 1, 0) ] in
  try
    ignore (Engine.run_instance ~max_rounds:100 lazy_policy inst);
    Alcotest.fail "expected stall failure"
  with Engine.Horizon_exceeded { round = 100; pending = 1 } -> ()

let test_fifo_work_conserving () =
  let inst = random_instance 11 ~m:3 ~n:15 ~maxrel:4 in
  let r = Engine.run_instance Heuristics.fifo inst in
  Alcotest.(check int) "never idles with pending flows" 0 r.Engine.rounds_idle

(* --- heuristic-specific behaviour --- *)

let test_maxcard_is_maximum () =
  (* greedy would pick edge (0,0) and block both; max cardinality is 2 *)
  let inst = mk ~m:2 [ (0, 0, 1, 0); (0, 1, 1, 0); (1, 0, 1, 0) ] in
  let r = Engine.run_instance Heuristics.maxcard inst in
  (* two flows run in round 0 -> total response 1+1+2 = 4 *)
  Alcotest.(check int) "total response" 4
    (Array.fold_left ( + ) 0 r.Engine.responses)

let test_minrtime_prioritizes_oldest () =
  (* old flow (released 0) and fresh flow (released 2) conflict at round 2:
     MinRTime must run the old one first. *)
  let inst = mk ~m:1 [ (0, 0, 1, 2); (0, 0, 1, 2) ] in
  let r = Engine.run_instance Heuristics.minrtime inst in
  Alcotest.(check int) "max response 2" 2 (Engine.max_response r);
  (* sanity on the weighting: a genuinely old flow wins against fresh ones *)
  let inst2 = mk ~m:2 [ (0, 0, 1, 0); (1, 0, 1, 1); (1, 1, 1, 1) ] in
  let r2 = Engine.run_instance Heuristics.minrtime inst2 in
  Alcotest.(check bool) "old flow not starved" true (r2.Engine.responses.(0) <= 2)

let test_minrtime_work_conserving_on_fresh_flows () =
  (* all flows fresh (weight would be 0 without the +1 offset): they must
     still be scheduled immediately when a matching exists *)
  let inst = mk ~m:2 [ (0, 0, 1, 0); (1, 1, 1, 0) ] in
  let r = Engine.run_instance Heuristics.minrtime inst in
  Alcotest.(check int) "both run in round 0" 1 (Engine.max_response r)

let test_maxweight_uses_queue_lengths () =
  let inst = random_instance 13 ~m:3 ~n:12 ~maxrel:2 in
  let r = Engine.run_instance Heuristics.maxweight inst in
  Alcotest.(check bool) "valid" true (Schedule.is_valid inst r.Engine.schedule)

let test_srpt_prefers_small_demands () =
  (* capacity-3 port pair: a demand-3 flow and a demand-1 flow conflict at
     round 0 together with another demand-1; SRPT packs the small ones
     first. *)
  let inst =
    Instance.of_flows ~cap_in:[| 3 |] ~cap_out:[| 3 |] ~m:1 ~m':1
      [ (0, 0, 3, 0); (0, 0, 1, 0); (0, 0, 1, 0) ]
  in
  let r = Engine.run_instance Heuristics.srpt inst in
  Alcotest.(check bool) "valid" true (Schedule.is_valid inst r.Engine.schedule);
  (* both unit flows run in round 0, the demand-3 flow waits *)
  Alcotest.(check int) "unit flow immediate" 1 r.Engine.responses.(1);
  Alcotest.(check int) "unit flow immediate" 1 r.Engine.responses.(2);
  Alcotest.(check int) "big flow deferred" 2 r.Engine.responses.(0)

let test_srpt_equals_fifo_on_unit_demands () =
  let inst = random_instance 29 ~m:4 ~n:20 ~maxrel:4 in
  let a = Engine.run_instance Heuristics.srpt inst in
  let b = Engine.run_instance Heuristics.fifo inst in
  Alcotest.(check (array int)) "same schedule" (Schedule.assignment a.Engine.schedule)
    (Schedule.assignment b.Engine.schedule)

let test_policies_on_demand_workloads () =
  let inst =
    Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:6 ~max_demand:3 ~seed:31
  in
  List.iter
    (fun (p : Policy.t) ->
      let r = Engine.run_instance p inst in
      Alcotest.(check bool) (p.Policy.name ^ " valid on demand workload") true
        (Schedule.is_valid inst r.Engine.schedule))
    (Heuristics.srpt :: all_policies 31)

(* --- capacities > 1 --- *)

let test_policies_respect_general_capacities () =
  let inst =
    Instance.of_flows ~cap_in:[| 2; 1 |] ~cap_out:[| 1; 2 |] ~m:2 ~m':2
      [ (0, 0, 1, 0); (0, 1, 1, 0); (1, 1, 1, 0); (0, 1, 1, 1) ]
  in
  List.iter
    (fun (p : Policy.t) ->
      let r = Engine.run_instance p inst in
      Alcotest.(check bool) (p.Policy.name ^ " valid") true
        (Schedule.is_valid inst r.Engine.schedule))
    (all_policies 17)

(* --- Figure 4(b): the 3/2 lower bound (Lemma 5.2) --- *)

let fig4b_adversary ~round ~pending =
  if round = 0 then [ (0, 1, 1); (0, 0, 1); (1, 2, 1); (1, 3, 1) ]
  else if round = 1 then
    Lower_bounds.fig4b_dashed
      ~remaining_solid_outputs:(List.map (fun (f : Flow.t) -> f.Flow.dst) pending)
  else []

let test_fig4b_offline_optimum () =
  match Exact.min_max_response (Lower_bounds.fig4b_static ()) with
  | Some (rho, _) -> Alcotest.(check int) "optimum 2" Lower_bounds.fig4b_optimum rho
  | None -> Alcotest.fail "fig4b must be schedulable"

let test_fig4b_forces_online_to_3 () =
  List.iter
    (fun (p : Policy.t) ->
      let r =
        Engine.run_adaptive ~m:3 ~m':4 ~arrivals:fig4b_adversary ~stop_arrivals_after:2 p
      in
      Alcotest.(check bool)
        (p.Policy.name ^ " forced to >= 3") true
        (Engine.max_response r >= 3))
    (all_policies 19)

(* --- Figure 4(a): unbounded ART ratio (Lemma 5.1) --- *)

let fig4a_adversary ~t ~round ~pending =
  if round < t then [ (0, 0, 1); (0, 1, 1) ]
  else begin
    let count d = List.length (List.filter (fun (f : Flow.t) -> f.Flow.dst = d) pending) in
    [ (1, Lower_bounds.fig4a_dashed_target ~pending_out0:(count 0) ~pending_out1:(count 1), 1) ]
  end

let test_fig4a_ratio_grows () =
  let ratio_for total =
    let t = 6 in
    let r =
      Engine.run_adaptive ~m:2 ~m':2
        ~arrivals:(fun ~round ~pending -> fig4a_adversary ~t ~round ~pending)
        ~stop_arrivals_after:total Heuristics.maxcard
    in
    let inst = Instance.create ~m:2 ~m':2 r.Engine.flows in
    let horizon = max (Art_lp.default_horizon inst) r.Engine.makespan in
    let bound = Art_lp.lower_bound ~horizon inst in
    Engine.average_response r /. bound.Art_lp.average
  in
  let small = ratio_for 24 and large = ratio_for 60 in
  Alcotest.(check bool) "adversary hurts online" true (small > 1.5);
  Alcotest.(check bool) "ratio grows with M" true (large > small)

let test_fig4a_static_shape () =
  let inst = Lower_bounds.fig4a_static ~t:4 ~total_rounds:10 in
  Alcotest.(check int) "flow count" ((2 * 4) + 6) (Instance.n inst);
  Alcotest.check_raises "bad parameters"
    (Invalid_argument "Lower_bounds.fig4a_static: need 1 <= t < total_rounds") (fun () ->
      ignore (Lower_bounds.fig4a_static ~t:5 ~total_rounds:5))

(* --- AMRT (Lemma 5.3) --- *)

let run_amrt inst =
  let cap_in, cap_out =
    Amrt.required_capacities ~cap_in:inst.Instance.cap_in ~cap_out:inst.Instance.cap_out
      ~dmax:(max 1 (Instance.dmax inst))
  in
  let amrt =
    Amrt.make ~planning_cap_in:inst.Instance.cap_in ~planning_cap_out:inst.Instance.cap_out
  in
  let augmented =
    Instance.create ~cap_in ~cap_out ~m:inst.Instance.m ~m':inst.Instance.m'
      inst.Instance.flows
  in
  (Engine.run_instance amrt augmented, amrt)

let test_amrt_feasible_and_complete () =
  let inst = random_instance 23 ~m:4 ~n:30 ~maxrel:8 in
  let r, amrt = run_amrt inst in
  Alcotest.(check bool) "complete" true (Schedule.is_complete r.Engine.schedule);
  match Amrt.current_rho amrt with
  | Some rho -> Alcotest.(check bool) "guess grew to >= 1" true (rho >= 1)
  | None -> Alcotest.fail "introspection lost"

let test_amrt_required_capacities () =
  let cap_in, cap_out =
    Amrt.required_capacities ~cap_in:[| 1; 2 |] ~cap_out:[| 3 |] ~dmax:2
  in
  Alcotest.(check (array int)) "in" [| 8; 10 |] cap_in;
  Alcotest.(check (array int)) "out" [| 12 |] cap_out

let prop_amrt_competitive =
  (* Lemma 5.3 gives a 2-competitive guarantee vs the optimal max response;
     comparing against the fractional LP bound we allow the batching slack:
     max response <= 2 * rho_guess and rho_guess converges near rho*. *)
  QCheck2.Test.make ~name:"AMRT: bounded competitive ratio" ~count:15
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 5) (int_range 5 25))
    (fun (seed, m, n) ->
      let inst = random_instance seed ~m ~n ~maxrel:6 in
      let r, amrt = run_amrt inst in
      let rho_guess = match Amrt.current_rho amrt with Some k -> k | None -> 0 in
      let frac = Mrt_scheduler.min_fractional_rho inst in
      Schedule.is_complete r.Engine.schedule
      && Engine.max_response r <= 2 * rho_guess
      (* the guess never needs to exceed a full serialization *)
      && rho_guess <= n + frac)

let prop_policies_always_feasible =
  QCheck2.Test.make ~name:"policies always emit feasible selections" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 1 25))
    (fun (seed, m, n) ->
      let inst = random_instance seed ~m ~n ~maxrel:5 in
      List.for_all
        (fun (p : Policy.t) ->
          let r = Engine.run_instance p inst in
          Schedule.is_valid inst r.Engine.schedule)
        (all_policies seed))

(* MinRTime's maximum response is not bounded by FIFO's (nor by FIFO's
   plus a constant): on this instance it keeps one flow waiting until its
   8th slot, while FIFO's worst flow finishes in its 5th.  The bounds that
   do hold are the two properties below. *)
let test_minrtime_max_response_can_exceed_fifo () =
  let inst = random_instance 43371 ~m:4 ~n:20 ~maxrel:6 in
  let mr = Engine.run_instance Heuristics.minrtime inst in
  let ff = Engine.run_instance Heuristics.fifo inst in
  Alcotest.(check int) "MinRTime max response" 8 (Engine.max_response mr);
  Alcotest.(check int) "FIFO max response" 5 (Engine.max_response ff)

(* On a unit instance every work-conserving policy keeps each flow's
   response within deg_in(src) + deg_out(dst) - 1, the degrees counting
   all flows at the port.  A waiting flow loses each slot to a distinct
   flow that shares one of its ports: the selection is a maximal matching
   (a max-weight matching with positive weights is maximal), and each
   blocking flow is scheduled once. *)
let prop_response_within_port_degrees =
  QCheck2.Test.make ~name:"response <= deg_in(src) + deg_out(dst) - 1" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 5 30))
    (fun (seed, n) ->
      let inst = random_instance seed ~m:4 ~n ~maxrel:6 in
      let deg_in = Array.make 4 0 and deg_out = Array.make 4 0 in
      Array.iter
        (fun (f : Flow.t) ->
          deg_in.(f.Flow.src) <- deg_in.(f.Flow.src) + 1;
          deg_out.(f.Flow.dst) <- deg_out.(f.Flow.dst) + 1)
        inst.Instance.flows;
      List.for_all
        (fun (p : Policy.t) ->
          let r = Engine.run_instance p inst in
          Array.for_all
            (fun (f : Flow.t) ->
              r.Engine.responses.(f.Flow.id) <= deg_in.(f.Flow.src) + deg_out.(f.Flow.dst) - 1)
            inst.Instance.flows)
        (all_policies seed))

(* LP (19)-(21) relaxes every valid schedule, so no policy's maximum
   response is below the smallest fractionally feasible rho, on unit
   switches and on switches whose capacities and demands go above 1. *)
let prop_max_response_at_least_fractional_rho =
  QCheck2.Test.make ~name:"max response >= min fractional rho" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 5 30))
    (fun (seed, n) ->
      List.for_all
        (fun inst ->
          let rho = Mrt_scheduler.min_fractional_rho inst in
          List.for_all
            (fun p -> Engine.max_response (Engine.run_instance p inst) >= rho)
            (all_policies seed))
        [ random_instance seed ~m:4 ~n ~maxrel:6; Reference.capacitated_instance seed ])

(* A pending queue on a small switch with capacities 1-3 and demands 1-3:
   few ports and many flows, so parallel flows and equal weights abound.
   Half the queues are deep, 25-300 flows, and then usually longer than
   the expanded switch has port pairs, so MinRTime and MaxWeight take one
   Hungarian edge per pair; releases are unsorted, so MinRTime's witness
   of a pair is often not its first flow. *)
let random_context seed =
  let g = Flowsched_util.Prng.create seed in
  let int lo hi = lo + Flowsched_util.Prng.int g (hi - lo + 1) in
  let m = int 1 4 and m' = int 1 4 in
  let round = int 0 6 in
  let n = if Flowsched_util.Prng.int g 2 = 0 then int 0 24 else int 25 300 in
  let queue =
    Array.init n (fun id ->
        Flow.make ~id ~src:(int 0 (m - 1)) ~dst:(int 0 (m' - 1)) ~demand:(int 1 3)
          ~release:(int 0 round) ())
  in
  {
    Policy.m;
    m';
    cap_in = Array.init m (fun _ -> int 1 3);
    cap_out = Array.init m' (fun _ -> int 1 3);
    round;
    queue;
  }

(* A wide switch past the Hungarian's sparse crossover: 24-64 input ports
   and, in three draws of four, 24-64 output ports with m <> m'; in the
   fourth only 1-2 output ports, so the queue usually has more flows than
   the expanded switch has port pairs and the sparse solver gets one edge
   per pair.  Capacities and demands 1-2, and 2-8 flows at each input
   port, about a quarter of them parallel to the port's previous flow,
   queued in shuffled order. *)
let random_wide_context seed =
  let g = Flowsched_util.Prng.create seed in
  let int lo hi = lo + Flowsched_util.Prng.int g (hi - lo + 1) in
  let m = int 24 64 in
  let m' =
    if Flowsched_util.Prng.int g 4 = 0 then int 1 2
    else match int 24 63 with r when r >= m -> r + 1 | r -> r
  in
  let round = int 0 3 in
  let ends = ref [] in
  for src = 0 to m - 1 do
    let dst = ref (int 0 (m' - 1)) in
    for _ = 1 to int 2 8 do
      if Flowsched_util.Prng.int g 4 > 0 then dst := int 0 (m' - 1);
      ends := (src, !dst) :: !ends
    done
  done;
  let ends = Array.of_list !ends in
  for k = Array.length ends - 1 downto 1 do
    let r = Flowsched_util.Prng.int g (k + 1) in
    let x = ends.(k) in
    ends.(k) <- ends.(r);
    ends.(r) <- x
  done;
  let queue =
    Array.mapi
      (fun id (src, dst) ->
        Flow.make ~id ~src ~dst ~demand:(int 1 2) ~release:(int 0 round) ())
      ends
  in
  {
    Policy.m;
    m';
    cap_in = Array.init m (fun _ -> int 1 2);
    cap_out = Array.init m' (fun _ -> int 1 2);
    round;
    queue;
  }

(* The matching policies select exactly what the reference pipeline does
   (queue graph, expansion, array-of-arrays Hungarian or Hopcroft-Karp,
   sort by weight, admission), the same indices in the same order. *)
let prop_selections_match_reference =
  QCheck2.Test.make ~name:"matching policies = reference pipeline" ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = random_context seed in
      Heuristics.minrtime.Policy.select ctx = Reference.minrtime ctx
      && Heuristics.maxweight.Policy.select ctx = Reference.maxweight ctx
      && Heuristics.maxcard.Policy.select ctx = Reference.maxcard ctx)

let prop_wide_selections_match_reference =
  QCheck2.Test.make ~name:"wide switch: matching policies = reference" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = random_wide_context seed in
      Heuristics.minrtime.Policy.select ctx = Reference.minrtime ctx
      && Heuristics.maxweight.Policy.select ctx = Reference.maxweight ctx
      && Heuristics.maxcard.Policy.select ctx = Reference.maxcard ctx)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_amrt_competitive;
        prop_policies_always_feasible;
        prop_response_within_port_degrees;
        prop_max_response_at_least_fractional_rho;
        prop_selections_match_reference;
        prop_wide_selections_match_reference;
      ]
  in
  Alcotest.run "flowsched_online"
    [
      ( "engine",
        [
          Alcotest.test_case "schedules everything" `Quick test_engine_schedules_everything;
          Alcotest.test_case "rejects bad policies" `Quick test_engine_rejects_bad_policy;
          Alcotest.test_case "detects stalls" `Quick test_engine_stalls_detected;
          Alcotest.test_case "fifo work conserving" `Quick test_fifo_work_conserving;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "maxcard maximum matching" `Quick test_maxcard_is_maximum;
          Alcotest.test_case "minrtime prioritizes oldest" `Quick test_minrtime_prioritizes_oldest;
          Alcotest.test_case "minrtime work conserving" `Quick
            test_minrtime_work_conserving_on_fresh_flows;
          Alcotest.test_case "maxweight valid" `Quick test_maxweight_uses_queue_lengths;
          Alcotest.test_case "srpt prefers small demands" `Quick test_srpt_prefers_small_demands;
          Alcotest.test_case "srpt = fifo on unit demands" `Quick test_srpt_equals_fifo_on_unit_demands;
          Alcotest.test_case "minrtime max response can exceed fifo's" `Quick
            test_minrtime_max_response_can_exceed_fifo;
          Alcotest.test_case "policies on demand workloads" `Quick test_policies_on_demand_workloads;
          Alcotest.test_case "general capacities" `Quick test_policies_respect_general_capacities;
        ] );
      ( "lower-bounds",
        [
          Alcotest.test_case "fig4b offline optimum" `Quick test_fig4b_offline_optimum;
          Alcotest.test_case "fig4b forces 3" `Quick test_fig4b_forces_online_to_3;
          Alcotest.test_case "fig4a ratio grows" `Slow test_fig4a_ratio_grows;
          Alcotest.test_case "fig4a static shape" `Quick test_fig4a_static_shape;
        ] );
      ( "amrt",
        [
          Alcotest.test_case "feasible and complete" `Quick test_amrt_feasible_and_complete;
          Alcotest.test_case "required capacities" `Quick test_amrt_required_capacities;
        ] );
      ("properties", props);
    ]
