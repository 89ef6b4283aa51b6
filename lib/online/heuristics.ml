open Flowsched_switch
module Bgraph = Flowsched_bipartite.Bgraph
module Bmatching = Flowsched_bipartite.Bmatching
module Weighted_matching = Flowsched_bipartite.Weighted_matching

(* Matching-based policies run on the port-replicated expansion so that
   capacities > 1 are handled; with unit capacities the expansion is the
   identity and the behaviour is exactly the paper's.  Each pending flow is
   expanded as it is read ([Bmatching.copies], the rule [Bmatching.expand]
   applies to [Policy.queue_graph]), so no graph of the queue itself is
   built.  When every capacity is 1 ([Bmatching.identity], read once per
   call) a flow's expanded ends are its ports, so it is expanded without
   the copy counters; a port out of range still raises [Invalid_argument].
   The expansion counts flows rather than demand units, so for
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
          let identity = Bmatching.identity c in
          let g =
            Bgraph.init ~nl:(Bmatching.expanded_nl c) ~nr:(Bmatching.expanded_nr c)
              (Array.length queue) (fun i ->
                let f = queue.(i) in
                if identity then { Bgraph.u = f.Flow.src; v = f.Flow.dst }
                else
                  let u = Bmatching.copy_left c f.Flow.src in
                  { Bgraph.u; v = Bmatching.copy_right c f.Flow.dst })
          in
          admit_feasible ctx (Flowsched_bipartite.Matching.max_cardinality g)
        end);
  }

(* MinRTime and MaxWeight weigh every flow of one expanded port pair for
   the same Hungarian edge, and the Hungarian keeps one edge per pair: the
   heaviest, the first on ties ([Weighted_matching.max_weight]).  When the
   expanded switch has at most as many pairs as the queue has flows, one
   pass over the queue therefore keeps that witness per pair, and the
   Hungarian gets one edge per pair, in order of each pair's first
   appearance.  Vertices are then numbered in the same order, each pair
   keeps the same witness, and the result comes out in the same order, so
   the selection is the one a per-flow feed gives.  The problem still
   declares one edge per flow, so its size and the solver it picks are
   the per-flow ones.  The pair table has an entry per expanded pair, so
   it is used only where it is no longer than the queue; on wider
   switches few flows share a pair anyway, and each flow is its own edge.
   Both weights are integers, converted to float once per edge.

   The pass is one loop per rule.  A flow's pair key is u * nr + v for its
   expanded ends u and v: on the identity expansion its ports themselves,
   else the copy counters' next copies.  Reads are unchecked only where
   the loop bounds the index ([i < n], [e < pairs]).  Indices taken from a
   flow's ports stay checked, since callers build the contexts: on the
   identity expansion MaxWeight's port counts check a flow's ports, and
   [identity_key] checks them for MinRTime. *)
type rule = Min_rtime | Max_weight

(* One domain's pair table, reused by every call: edge [e] is expanded
   pair [pair.(e)] = u * nr + v with witness flow [flow.(e)] of weight
   [best.(e)], and [edge] maps a pair back to its edge, -1 while unseen.
   A call first clears the [pairs] entries the last one set, and [pairs]
   counts every entry as it is set, so a call abandoned by an exception
   leaves no trace. *)
type table = {
  mutable edge : int array;
  mutable pair : int array;
  mutable flow : int array;
  mutable best : int array;
  mutable pairs : int;
}

let tables =
  Domain.DLS.new_key (fun () -> { edge = [||]; pair = [||]; flow = [||]; best = [||]; pairs = 0 })

(* Buffers only grow, geometrically, as in [Weighted_matching]. *)
let grow a need fill =
  if Array.length a >= need then a else Array.make (max need (3 * Array.length a / 2)) fill

(* The table for [keys] expanded pairs, with every entry of the last call
   cleared. *)
let table keys =
  let t = Domain.DLS.get tables in
  for e = 0 to t.pairs - 1 do
    t.edge.(Array.unsafe_get t.pair e) <- -1
  done;
  t.pairs <- 0;
  t.edge <- grow t.edge keys (-1);
  t.pair <- grow t.pair keys 0;
  t.flow <- grow t.flow keys 0;
  t.best <- grow t.best keys 0;
  t

(* Pair [key]'s first flow [i], of weight [w], as the next edge. *)
let first t key i w =
  let e = t.pairs in
  t.pair.(e) <- key;
  t.flow.(e) <- i;
  t.best.(e) <- w;
  t.pairs <- e + 1;
  t.edge.(key) <- e

let identity_key ~nl ~nr (f : Flow.t) =
  let u = f.Flow.src and v = f.Flow.dst in
  if u < 0 || u >= nl || v < 0 || v >= nr then
    invalid_arg "Heuristics: flow port out of range";
  (u * nr) + v

let weighted_select ctx rule =
  let queue = ctx.Policy.queue in
  let n = Array.length queue in
  if n = 0 then []
  else begin
    let c = copies ctx in
    let identity = Bmatching.identity c in
    let nl = Bmatching.expanded_nl c and nr = Bmatching.expanded_nr c in
    let ports k = match rule with Max_weight -> Array.make k 0 | Min_rtime -> [||] in
    let qin = ports ctx.Policy.m and qout = ports ctx.Policy.m' in
    (* MaxWeight's weight holds once every flow is counted *)
    let weight i =
      let f = queue.(i) in
      match rule with
      | Min_rtime -> ctx.Policy.round - f.Flow.release + 1
      | Max_weight -> qin.(f.Flow.src) + qout.(f.Flow.dst)
    in
    let matched =
      if nl * nr <= n then begin
        let t = table (nl * nr) in
        let edge = t.edge in
        (match rule with
        | Max_weight ->
            (* MaxWeight's flows on one pair weigh the same, so its first
               flow is the witness *)
            for i = 0 to n - 1 do
              let f = Array.unsafe_get queue i in
              let u = f.Flow.src and v = f.Flow.dst in
              qin.(u) <- qin.(u) + 1;
              qout.(v) <- qout.(v) + 1;
              let key =
                if identity then (u * nr) + v
                else (Bmatching.copy_left c u * nr) + Bmatching.copy_right c v
              in
              if edge.(key) < 0 then first t key i 0
            done
        | Min_rtime ->
            let r1 = ctx.Policy.round + 1 in
            for i = 0 to n - 1 do
              let f = Array.unsafe_get queue i in
              let key =
                if identity then identity_key ~nl ~nr f
                else (Bmatching.copy_left c f.Flow.src * nr) + Bmatching.copy_right c f.Flow.dst
              in
              let w = r1 - f.Flow.release in
              let e = edge.(key) in
              if e < 0 then first t key i w
              else if w > Array.unsafe_get t.best e then begin
                Array.unsafe_set t.flow e i;
                Array.unsafe_set t.best e w
              end
            done);
        let p = Weighted_matching.problem ~nl ~nr ~edges:n in
        for e = 0 to t.pairs - 1 do
          let key = Array.unsafe_get t.pair e in
          Weighted_matching.add_edge p (key / nr) (key mod nr)
            (float_of_int (weight (Array.unsafe_get t.flow e)))
        done;
        List.map (fun e -> t.flow.(e)) (Weighted_matching.solve p)
      end
      else begin
        (match rule with
        | Max_weight ->
            for i = 0 to n - 1 do
              let f = Array.unsafe_get queue i in
              qin.(f.Flow.src) <- qin.(f.Flow.src) + 1;
              qout.(f.Flow.dst) <- qout.(f.Flow.dst) + 1
            done
        | Min_rtime -> ());
        let p = Weighted_matching.problem ~nl ~nr ~edges:n in
        for i = 0 to n - 1 do
          let f = Array.unsafe_get queue i in
          let u = if identity then f.Flow.src else Bmatching.copy_left c f.Flow.src in
          let v = if identity then f.Flow.dst else Bmatching.copy_right c f.Flow.dst in
          Weighted_matching.add_edge p u v (float_of_int (weight i))
        done;
        Weighted_matching.solve p
      end
    in
    (* keep the heaviest candidates when the demand filter has to drop any *)
    let by_weight = List.stable_sort (fun a b -> compare (weight b) (weight a)) matched in
    admit_feasible ctx by_weight
  end

let minrtime =
  { Policy.name = "MinRTime"; select = (fun ctx -> weighted_select ctx Min_rtime) }

let maxweight =
  { Policy.name = "MaxWeight"; select = (fun ctx -> weighted_select ctx Max_weight) }

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
