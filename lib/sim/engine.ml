open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace
module Pending = Flowsched_online.Policy.Pending

let c_rounds = Metrics.counter "engine.rounds"
let c_idle_rounds = Metrics.counter "engine.idle_rounds"
let c_flows = Metrics.counter "engine.flows_arrived"
let h_queue_len = Metrics.histogram "engine.queue_len"

type result = {
  flows : Flow.t array;
  schedule : Schedule.t;
  responses : int array;
  makespan : int;
  rounds_idle : int;
}

exception Policy_violation of string
exception Horizon_exceeded of { round : int; pending : int }

(* The core loop shared by both drivers.  [arrive round pending] returns the
   flows released this round (with globally consistent ids); [more round]
   says whether new arrivals may still appear. *)
let drive ?(validate = true) ?endpoint ?(max_rounds = 100_000) ~m ~m' ~cap_in ~cap_out
    ~arrive ~more (policy : Flowsched_online.Policy.t) =
  Trace.with_span "engine.drive" (fun () ->
  let all_flows = ref [] in
  let assignment = ref [] in
  let pending = Pending.create () in
  let round = ref 0 in
  let rounds_idle = ref 0 in
  let makespan = ref 0 in
  (* validation marks over the queue, clear between rounds *)
  let seen = ref Bytes.empty in
  while (more !round && !round < max_rounds) || Pending.length pending > 0 do
    if !round >= max_rounds then
      raise (Horizon_exceeded { round = !round; pending = Pending.length pending });
    let arrivals = if more !round then arrive !round pending else [] in
    List.iter
      (fun (f : Flow.t) ->
        all_flows := f :: !all_flows;
        Pending.push pending f)
      arrivals;
    Metrics.incr ~by:(List.length arrivals) c_flows;
    let queue = Pending.queue pending in
    Metrics.incr c_rounds;
    Metrics.observe h_queue_len (float_of_int (Array.length queue));
    let ctx =
      {
        Flowsched_online.Policy.m;
        m';
        cap_in;
        cap_out;
        round = !round;
        queue;
      }
    in
    let selected = policy.Flowsched_online.Policy.select ctx in
    if validate then begin
      if Bytes.length !seen < Array.length queue then
        seen := Bytes.make (max (Array.length queue) (2 * Bytes.length !seen)) '\000';
      let marks = !seen in
      List.iter
        (fun i ->
          if i < 0 || i >= Array.length queue then
            raise (Policy_violation (Printf.sprintf "index %d out of queue range" i));
          if Bytes.get marks i <> '\000' then
            raise (Policy_violation (Printf.sprintf "index %d selected twice" i));
          Bytes.set marks i '\001')
        selected;
      List.iter (fun i -> Bytes.set marks i '\000') selected;
      if not (Flowsched_online.Policy.feasible_selection ctx selected) then
        raise
          (Policy_violation
             (Printf.sprintf "capacity-infeasible selection at round %d" !round));
      (match endpoint with
      | Some ep ->
          if not (Endpoint.feasible ep (List.map (fun i -> queue.(i)) selected)) then
            raise
              (Policy_violation
                 (Printf.sprintf "node-capacity-infeasible selection at round %d" !round))
      | None -> ())
    end;
    if selected = [] && queue <> [||] then begin
      incr rounds_idle;
      Metrics.incr c_idle_rounds
    end;
    if selected <> [] then makespan := !round + 1;
    List.iter
      (fun i -> assignment := (queue.(i).Flow.id, !round) :: !assignment)
      selected;
    Pending.remove pending selected;
    incr round
  done;
  (* Index flows by id so slots.(id) and flows.(id) line up regardless of
     arrival order. *)
  let arrived = List.rev !all_flows in
  let n = List.length arrived in
  let flows =
    match arrived with
    | [] -> [||]
    | first :: _ ->
        let arr = Array.make n first in
        List.iter
          (fun (f : Flow.t) ->
            if f.Flow.id < 0 || f.Flow.id >= n then
              invalid_arg "Engine: flow ids must be 0..n-1";
            arr.(f.Flow.id) <- f)
          arrived;
        arr
  in
  let slots = Array.make n (-1) in
  List.iter (fun (id, r) -> slots.(id) <- r) !assignment;
  let schedule = Schedule.make slots in
  let responses = Array.mapi (fun i r -> r + 1 - flows.(i).Flow.release) slots in
  { flows; schedule; responses; makespan = !makespan; rounds_idle = !rounds_idle })

let run_instance ?validate ?endpoint ?max_rounds (policy : Flowsched_online.Policy.t) inst =
  let by_release = Hashtbl.create 16 in
  Array.iter
    (fun (f : Flow.t) ->
      let cur = try Hashtbl.find by_release f.Flow.release with Not_found -> [] in
      Hashtbl.replace by_release f.Flow.release (f :: cur))
    inst.Instance.flows;
  let last = Instance.last_release inst in
  let arrive round _ =
    match Hashtbl.find_opt by_release round with
    | Some flows -> List.rev flows
    | None -> []
  in
  let more round = round <= last in
  drive ?validate ?endpoint ?max_rounds ~m:inst.Instance.m ~m':inst.Instance.m'
    ~cap_in:inst.Instance.cap_in ~cap_out:inst.Instance.cap_out ~arrive ~more policy

let average_response r =
  if Array.length r.responses = 0 then nan
  else
    float_of_int (Array.fold_left ( + ) 0 r.responses)
    /. float_of_int (Array.length r.responses)

let max_response r = Array.fold_left max 0 r.responses

let run_adaptive ?validate ?max_rounds ~m ~m' ?cap_in ?cap_out ~arrivals ~stop_arrivals_after
    policy =
  let cap_in = match cap_in with Some c -> c | None -> Array.make m 1 in
  let cap_out = match cap_out with Some c -> c | None -> Array.make m' 1 in
  let next_id = ref 0 in
  let arrive round pending =
    let specs = arrivals ~round ~pending:(Pending.to_list pending) in
    List.map
      (fun (src, dst, demand) ->
        let id = !next_id in
        incr next_id;
        Flow.make ~id ~src ~dst ~demand ~release:round ())
      specs
  in
  let more round = round < stop_arrivals_after in
  drive ?validate ?max_rounds ~m ~m' ~cap_in ~cap_out ~arrive ~more policy
