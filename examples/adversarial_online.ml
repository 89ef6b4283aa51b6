(* The limits of online scheduling: Figure 4's adversaries in action.

   (a) Lemma 5.1: no online algorithm is O(1)-competitive for average
       response time — the adversary floods whichever output port the
       algorithm left congested, and the ratio to the offline LP bound
       grows with the flood length.

   (b) Lemma 5.2: even for maximum response time, online algorithms are at
       least 3/2 from optimal on a seven-port gadget.

   (c) Lemma 5.3: with batching and augmented capacity, AMRT recovers
       2-competitiveness for maximum response time.

   Run with: dune exec examples/adversarial_online.exe *)

open Flowsched_switch
open Flowsched_core
open Flowsched_online
open Flowsched_sim

let lemma_5_1 () =
  print_endline "--- Lemma 5.1: average response time is not competitive ---";
  let t = 6 in
  List.iter
    (fun total ->
      let arrivals ~round ~pending =
        if round < t then [ (0, 0, 1); (0, 1, 1) ]
        else begin
          let count d =
            List.length (List.filter (fun (f : Flow.t) -> f.Flow.dst = d) pending)
          in
          [ (1, Lower_bounds.fig4a_dashed_target ~pending_out0:(count 0) ~pending_out1:(count 1), 1) ]
        end
      in
      let r =
        Engine.run_adaptive ~m:2 ~m':2 ~arrivals ~stop_arrivals_after:total
          Heuristics.maxcard
      in
      let inst = Instance.create ~m:2 ~m':2 r.Engine.flows in
      let horizon = max (Art_lp.default_horizon inst) r.Engine.makespan in
      let bound = Art_lp.lower_bound ~horizon inst in
      Printf.printf "  flood length %2d: MaxCard avg %.2f vs LP %.2f  (ratio %.2f)\n" total
        (Engine.average_response r) bound.Art_lp.average
        (Engine.average_response r /. bound.Art_lp.average))
    [ 12; 24; 48; 96 ];
  print_endline "  -> the ratio keeps growing: no online algorithm is O(1)-competitive."

let lemma_5_2 () =
  print_endline "\n--- Lemma 5.2: max response time is >= 3/2 from optimal online ---";
  let adversary ~round ~pending =
    if round = 0 then [ (0, 1, 1); (0, 0, 1); (1, 2, 1); (1, 3, 1) ]
    else if round = 1 then
      Lower_bounds.fig4b_dashed
        ~remaining_solid_outputs:(List.map (fun (f : Flow.t) -> f.Flow.dst) pending)
    else []
  in
  List.iter
    (fun (p : Policy.t) ->
      let r = Engine.run_adaptive ~m:3 ~m':4 ~arrivals:adversary ~stop_arrivals_after:2 p in
      Printf.printf "  %-9s forced to max response %d (offline optimum: %d)\n" p.Policy.name
        (Engine.max_response r) Lower_bounds.fig4b_optimum)
    (Heuristics.all_paper_heuristics @ [ Heuristics.fifo ])

let lemma_5_3 () =
  print_endline "\n--- Lemma 5.3: AMRT is 2-competitive with augmented capacity ---";
  let inst = Workload.poisson ~m:6 ~rate:6.0 ~rounds:12 ~seed:99 in
  let cap_in, cap_out =
    Amrt.required_capacities ~cap_in:inst.Instance.cap_in ~cap_out:inst.Instance.cap_out
      ~dmax:1
  in
  let amrt =
    Amrt.make ~planning_cap_in:inst.Instance.cap_in ~planning_cap_out:inst.Instance.cap_out
  in
  let augmented = Instance.create ~cap_in ~cap_out ~m:6 ~m':6 inst.Instance.flows in
  let r = Engine.run_instance amrt augmented in
  let frac = Mrt_scheduler.min_fractional_rho inst in
  let guess = match Amrt.current_rho amrt with Some k -> k | None -> 0 in
  Printf.printf
    "  %d flows: AMRT max response %d, final guess rho=%d, LP optimum rho*=%d\n"
    (Instance.n inst) (Engine.max_response r) guess frac;
  Printf.printf "  guarantee max <= 2*guess holds: %b (capacities scaled to %d)\n"
    (Engine.max_response r <= 2 * guess)
    cap_in.(0)

let () =
  lemma_5_1 ();
  lemma_5_2 ();
  lemma_5_3 ()
