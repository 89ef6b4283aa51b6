open Flowsched_switch
module Bgraph = Flowsched_bipartite.Bgraph
module Bmatching = Flowsched_bipartite.Bmatching
module Weighted_matching = Flowsched_bipartite.Weighted_matching

(* Matching-based policies run on the port-replicated expansion so that
   capacities > 1 are handled; with unit capacities the expansion is the
   identity and the behaviour is exactly the paper's.  Each pending flow is
   expanded as it is read ([Bmatching.copies], the rule [Bmatching.expand]
   applies to [Policy.queue_graph]), so no graph of the queue itself is
   built.  The expansion counts flows rather than demand units, so for
   non-unit demands (outside the paper's experimental setting) the
   candidate matching is filtered through a demand-weighted capacity check,
   dropping the lightest-priority overflow; with unit demands the filter
   never fires. *)
let copies ctx =
  Bmatching.copies ~nl:ctx.Policy.m ~nr:ctx.Policy.m' ~cl:ctx.Policy.cap_in
    ~cr:ctx.Policy.cap_out

let admit_feasible ctx candidates =
  let res_in = Array.copy ctx.Policy.cap_in and res_out = Array.copy ctx.Policy.cap_out in
  List.filter
    (fun i ->
      let f = ctx.Policy.queue.(i) in
      if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand
      then begin
        res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
        res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
        true
      end
      else false)
    candidates

let maxcard =
  {
    Policy.name = "MaxCard";
    select =
      (fun ctx ->
        let queue = ctx.Policy.queue in
        if Array.length queue = 0 then []
        else begin
          let c = copies ctx in
          let g =
            Bgraph.init ~nl:(Bmatching.expanded_nl c) ~nr:(Bmatching.expanded_nr c)
              (Array.length queue) (fun i ->
                let u = Bmatching.copy_left c queue.(i).Flow.src in
                { Bgraph.u; v = Bmatching.copy_right c queue.(i).Flow.dst })
          in
          admit_feasible ctx (Flowsched_bipartite.Matching.max_cardinality g)
        end);
  }

(* One pass over the queue feeds the Hungarian each flow's expanded ends
   and weight; [Weighted_matching.max_weight] on the expanded queue graph
   would see the same edges in the same order, so the selection is the
   same. *)
let weighted_select ctx weight_of =
  let queue = ctx.Policy.queue in
  if Array.length queue = 0 then []
  else begin
    let c = copies ctx in
    let p =
      Weighted_matching.problem ~nl:(Bmatching.expanded_nl c) ~nr:(Bmatching.expanded_nr c)
        ~edges:(Array.length queue)
    in
    Array.iteri
      (fun i (f : Flow.t) ->
        let u = Bmatching.copy_left c f.Flow.src in
        let v = Bmatching.copy_right c f.Flow.dst in
        Weighted_matching.add_edge p u v (weight_of i))
      queue;
    let matched = Weighted_matching.solve p in
    (* keep the heaviest candidates when the demand filter has to drop any *)
    let by_weight =
      List.stable_sort (fun a b -> Float.compare (weight_of b) (weight_of a)) matched
    in
    admit_feasible ctx by_weight
  end

let minrtime =
  {
    Policy.name = "MinRTime";
    select =
      (fun ctx ->
        weighted_select ctx (fun i ->
            let f = ctx.Policy.queue.(i) in
            float_of_int (ctx.Policy.round - f.Flow.release + 1)));
  }

let maxweight =
  {
    Policy.name = "MaxWeight";
    select =
      (fun ctx ->
        let qin = Array.make ctx.Policy.m 0 and qout = Array.make ctx.Policy.m' 0 in
        Array.iter
          (fun (f : Flow.t) ->
            qin.(f.Flow.src) <- qin.(f.Flow.src) + 1;
            qout.(f.Flow.dst) <- qout.(f.Flow.dst) + 1)
          ctx.Policy.queue;
        weighted_select ctx (fun i ->
            let f = ctx.Policy.queue.(i) in
            float_of_int (qin.(f.Flow.src) + qout.(f.Flow.dst))));
  }

let fifo =
  { Policy.name = "FIFO"; select = (fun ctx -> Policy.greedy_pack ctx Flow.compare) }

let srpt =
  let order (a : Flow.t) (b : Flow.t) =
    match compare a.Flow.demand b.Flow.demand with 0 -> Flow.compare a b | c -> c
  in
  { Policy.name = "SRPT"; select = (fun ctx -> Policy.greedy_pack ctx order) }

let random_policy ~seed =
  let g = Flowsched_util.Prng.create seed in
  {
    Policy.name = "Random";
    select =
      (fun ctx ->
        let n = Array.length ctx.Policy.queue in
        if n = 0 then []
        else begin
          let order = Array.init n (fun i -> i) in
          Flowsched_util.Sampling.shuffle g order;
          let res_in = Array.copy ctx.Policy.cap_in in
          let res_out = Array.copy ctx.Policy.cap_out in
          Array.fold_left
            (fun acc i ->
              let f = ctx.Policy.queue.(i) in
              if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand
              then begin
                res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
                res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
                i :: acc
              end
              else acc)
            [] order
        end);
  }

let all_paper_heuristics = [ maxcard; minrtime; maxweight ]
