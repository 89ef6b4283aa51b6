open Flowsched_switch
open Flowsched_util

let interval_slack inst =
  let horizon = Instance.last_release inst + 1 in
  let count_in = Array.make_matrix inst.Instance.m horizon 0 in
  let count_out = Array.make_matrix inst.Instance.m' horizon 0 in
  Array.iter
    (fun (f : Flow.t) ->
      count_in.(f.Flow.src).(f.Flow.release) <-
        count_in.(f.Flow.src).(f.Flow.release) + 1;
      count_out.(f.Flow.dst).(f.Flow.release) <-
        count_out.(f.Flow.dst).(f.Flow.release) + 1)
    inst.Instance.flows;
  let worst = ref min_int in
  let scan counts =
    Array.iter
      (fun per_round ->
        (* Kadane over (count_t - 1): the best interval's release surplus *)
        let best_ending = ref 0 in
        Array.iter
          (fun c ->
            let excess = c - 1 in
            best_ending := max excess (!best_ending + excess);
            worst := max !worst !best_ending)
          per_round)
      counts
  in
  scan count_in;
  scan count_out;
  if !worst = min_int then 0 else max !worst 0

let generate ~seed ~m ~rounds =
  let g = Prng.create seed in
  (* One random partial matching per round: a random permutation whose
     edges are kept with probability 0.7, so each port sees at most one
     release per round. *)
  let specs = ref [] in
  for t = 0 to rounds - 1 do
    let perm = Array.init m (fun i -> i) in
    Sampling.shuffle g perm;
    Array.iteri
      (fun src dst -> if Prng.float g < 0.7 then specs := (src, dst, 1, t) :: !specs)
      perm
  done;
  let specs = Array.of_list (List.rev !specs) in
  let build () =
    Instance.of_flows ~m ~m':m (Array.to_list specs)
  in
  if Array.length specs = 0 then Instance.of_flows ~m ~m':m [ (0, 0, 1, 0) ]
  else begin
    (* Perturb: advance random releases while the +1 slack holds. *)
    for _ = 1 to m * rounds / 2 do
      let i = Prng.int g (Array.length specs) in
      let src, dst, d, r = specs.(i) in
      if r > 0 then begin
        let r' = Prng.int g r in
        specs.(i) <- (src, dst, d, r');
        if interval_slack (build ()) > 1 then specs.(i) <- (src, dst, d, r)
      end
    done;
    build ()
  end

type study = {
  trials : int;
  flows_total : int;
  worst_slack : int;
  worst_fractional_rho : int;
  worst_heuristic : int;
  worst_exact : int option;
}

(* MinRTime as an offline greedy: per round, a max-weight matching of
   pending flows weighted by waiting time (reusing the baseline machinery
   keeps this module independent of the online/sim libraries). *)
let minrtime_like inst =
  let n = Instance.n inst in
  let schedule = Schedule.unassigned n in
  let remaining = ref n in
  let t = ref 0 in
  while !remaining > 0 do
    let pending =
      Array.to_list inst.Instance.flows
      |> List.filter (fun (f : Flow.t) ->
             f.Flow.release <= !t && Schedule.round_of schedule f.Flow.id < 0)
    in
    if pending <> [] then begin
      let flows = Array.of_list pending in
      let pairs = Array.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst)) flows in
      let g = Flowsched_bipartite.Bgraph.create ~nl:inst.Instance.m ~nr:inst.Instance.m' pairs in
      let weights =
        Array.map (fun (f : Flow.t) -> float_of_int (!t - f.Flow.release + 1)) flows
      in
      let matched = Flowsched_bipartite.Weighted_matching.max_weight g weights in
      List.iter
        (fun e ->
          Schedule.assign schedule flows.(e).Flow.id !t;
          decr remaining)
        matched
    end;
    incr t
  done;
  schedule

let study ~seed ~m ~rounds ~trials =
  let worst_slack = ref 0 in
  let worst_frac = ref 0 in
  let worst_heur = ref 0 in
  let worst_exact = ref None in
  let flows_total = ref 0 in
  for trial = 0 to trials - 1 do
    let inst = generate ~seed:(seed + (31 * trial)) ~m ~rounds in
    flows_total := !flows_total + Instance.n inst;
    worst_slack := max !worst_slack (interval_slack inst);
    worst_frac := max !worst_frac (Mrt_scheduler.min_fractional_rho inst);
    let heur = minrtime_like inst in
    worst_heur := max !worst_heur (Schedule.max_response inst heur);
    if Instance.n inst <= 14 then begin
      match Exact.min_max_response inst with
      | Some (rho, _) ->
          worst_exact :=
            Some (match !worst_exact with Some w -> max w rho | None -> rho)
      | None -> ()
    end
  done;
  {
    trials;
    flows_total = !flows_total;
    worst_slack = !worst_slack;
    worst_fractional_rho = !worst_frac;
    worst_heuristic = !worst_heur;
    worst_exact = !worst_exact;
  }
