open Flowsched_switch

(* Generic round-driven packer: [pick] selects the flows to schedule from
   the pending set given the residual capacities of the current round. *)
let run_rounds inst pick =
  let n = Instance.n inst in
  let schedule = Schedule.unassigned n in
  let pending = ref [] in
  let remaining = ref n in
  let arrivals = Instance.by_release inst in
  let t = ref 0 in
  while !remaining > 0 do
    (* this round's arrivals, in instance order, go ahead of the older
       flows: greedy_maxcard's matching depends on this order *)
    pending := arrivals !t @ !pending;
    let chosen = pick !pending in
    List.iter
      (fun (f : Flow.t) ->
        Schedule.assign schedule f.Flow.id !t;
        decr remaining)
      chosen;
    pending := List.filter (fun (f : Flow.t) -> Schedule.round_of schedule f.Flow.id < 0) !pending;
    incr t
  done;
  schedule

let pack_in_order inst order pending =
  let sorted = List.sort order pending in
  let res_in = Array.copy inst.Instance.cap_in in
  let res_out = Array.copy inst.Instance.cap_out in
  List.filter
    (fun (f : Flow.t) ->
      if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand then begin
        res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
        res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
        true
      end
      else false)
    sorted

let fifo inst = run_rounds inst (pack_in_order inst Flow.compare)

(* Endpoint-capacity-aware packing: the port residuals of [pack_in_order]
   plus per-node residuals on both sides, so the schedule respects the
   coarser node capacities of the Pa-Rajaraman-Stalfa model as well. *)
let pack_under_endpoint inst (ep : Endpoint.t) order pending =
  let sorted = List.sort order pending in
  let res_in = Array.copy inst.Instance.cap_in in
  let res_out = Array.copy inst.Instance.cap_out in
  let node_in = Array.copy ep.Endpoint.cap_node_in in
  let node_out = Array.copy ep.Endpoint.cap_node_out in
  List.filter
    (fun (f : Flow.t) ->
      let ni = ep.Endpoint.node_in.(f.Flow.src) in
      let no = ep.Endpoint.node_out.(f.Flow.dst) in
      if
        res_in.(f.Flow.src) >= f.Flow.demand
        && res_out.(f.Flow.dst) >= f.Flow.demand
        && node_in.(ni) >= f.Flow.demand
        && node_out.(no) >= f.Flow.demand
      then begin
        res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
        res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
        node_in.(ni) <- node_in.(ni) - f.Flow.demand;
        node_out.(no) <- node_out.(no) - f.Flow.demand;
        true
      end
      else false)
    sorted

let fifo_endpoint ep inst =
  if not (Endpoint.admits ep inst) then
    invalid_arg "Baselines.fifo_endpoint: a flow exceeds its node capacity";
  run_rounds inst (pack_under_endpoint inst ep Flow.compare)

let srpt_order inst =
  let order (a : Flow.t) (b : Flow.t) =
    match compare a.Flow.demand b.Flow.demand with 0 -> Flow.compare a b | c -> c
  in
  run_rounds inst (pack_in_order inst order)

let greedy_maxcard inst =
  let pick pending =
    match pending with
    | [] -> []
    | _ ->
        let flows = Array.of_list pending in
        (* Unit-demand fast path uses the plain graph; general demands fall
           back to FIFO packing inside the matching by demand-feasibility. *)
        let pairs = Array.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst)) flows in
        let g = Flowsched_bipartite.Bgraph.create ~nl:inst.Instance.m ~nr:inst.Instance.m' pairs in
        if Instance.dmax inst <= 1 then begin
          let expansion =
            Flowsched_bipartite.Bmatching.expand g ~cl:inst.Instance.cap_in
              ~cr:inst.Instance.cap_out
          in
          let matched =
            Flowsched_bipartite.Matching.max_cardinality expansion.Flowsched_bipartite.Bmatching.graph
          in
          List.map (fun e -> flows.(e)) matched
        end
        else
          (* capacity-aware greedy on the matching order *)
          pack_in_order inst Flow.compare pending
  in
  run_rounds inst pick
