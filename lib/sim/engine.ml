open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace
module Json = Flowsched_util.Json
module Policy = Flowsched_online.Policy
module Pending = Policy.Pending

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

let violation what round =
  raise (Policy_violation (Printf.sprintf "%s selection at round %d" what round))

(* One [policy.select] span per slot, with the policy, the queue length
   and the flows selected.  Tracing off, a slot allocates no closure for
   it. *)
let select (policy : Policy.t) ctx =
  if not (Trace.enabled ()) then policy.Policy.select ctx
  else begin
    let selected = ref [] in
    Trace.with_span "policy.select"
      ~args:(fun () ->
        [
          ("policy", Json.Str policy.Policy.name);
          ("queue", Json.Int (Array.length ctx.Policy.queue));
          ("selected", Json.Int (List.length !selected));
        ])
      (fun () ->
        selected := policy.Policy.select ctx;
        !selected)
  end

let run_slot ?endpoint ~m ~m' ~cap_in ~cap_out ~round (policy : Policy.t) pending =
  let queue = Pending.queue pending in
  let ctx = { Policy.m; m'; cap_in; cap_out; round; queue } in
  let selected = select policy ctx in
  (try Pending.remove pending selected with Invalid_argument msg -> raise (Policy_violation msg));
  if not (Policy.feasible_selection ctx selected) then violation "capacity-infeasible" round;
  let chosen = List.map (fun i -> queue.(i)) selected in
  (match endpoint with
  | Some ep when not (Endpoint.feasible ep chosen) -> violation "node-capacity-infeasible" round
  | _ -> ());
  chosen

(* The batch loop behind both drivers.  [arrive round pending] returns the
   flows released this round (with globally consistent ids); [more round]
   says whether new arrivals may still appear. *)
let drive ?endpoint ?(max_rounds = 100_000) ~m ~m' ~cap_in ~cap_out ~arrive ~more policy =
  Trace.with_span "engine.drive" (fun () ->
  let all_flows = ref [] in
  let assignment = ref [] in
  let pending = Pending.create () in
  let round = ref 0 in
  let rounds_idle = ref 0 in
  let makespan = ref 0 in
  while more !round || Pending.length pending > 0 do
    if !round >= max_rounds then
      raise (Horizon_exceeded { round = !round; pending = Pending.length pending });
    let arrivals = if more !round then arrive !round pending else [] in
    List.iter
      (fun (f : Flow.t) ->
        all_flows := f :: !all_flows;
        Pending.push pending f)
      arrivals;
    Metrics.incr ~by:(List.length arrivals) c_flows;
    let queued = Pending.length pending in
    Metrics.incr c_rounds;
    Metrics.observe h_queue_len (float_of_int queued);
    (match run_slot ?endpoint ~m ~m' ~cap_in ~cap_out ~round:!round policy pending with
    | [] ->
        if queued > 0 then begin
          incr rounds_idle;
          Metrics.incr c_idle_rounds
        end
    | chosen ->
        makespan := !round + 1;
        List.iter (fun (f : Flow.t) -> assignment := (f.Flow.id, !round) :: !assignment) chosen);
    incr round
  done;
  (* Every flow has arrived, and both drivers number them 0..n-1: index
     them by id so slots.(id) and flows.(id) line up whatever the arrival
     order. *)
  let n = List.length !all_flows in
  let flows =
    match !all_flows with
    | [] -> [||]
    | last :: _ ->
        let arr = Array.make n last in
        List.iter (fun (f : Flow.t) -> arr.(f.Flow.id) <- f) !all_flows;
        arr
  in
  let slots = Array.make n (-1) in
  List.iter (fun (id, r) -> slots.(id) <- r) !assignment;
  let schedule = Schedule.make slots in
  let responses = Array.mapi (fun i r -> r + 1 - flows.(i).Flow.release) slots in
  { flows; schedule; responses; makespan = !makespan; rounds_idle = !rounds_idle })

let run_instance ?endpoint ?max_rounds policy inst =
  let released = Instance.by_release inst in
  let last = Instance.last_release inst in
  drive ?endpoint ?max_rounds ~m:inst.Instance.m ~m':inst.Instance.m'
    ~cap_in:inst.Instance.cap_in ~cap_out:inst.Instance.cap_out
    ~arrive:(fun round _ -> released round)
    ~more:(fun round -> round <= last)
    policy

let average_response r =
  if Array.length r.responses = 0 then nan
  else
    float_of_int (Array.fold_left ( + ) 0 r.responses)
    /. float_of_int (Array.length r.responses)

let max_response r = Array.fold_left max 0 r.responses

let run_adaptive ?max_rounds ~m ~m' ?cap_in ?cap_out ~arrivals ~stop_arrivals_after policy =
  let cap_in = match cap_in with Some c -> c | None -> Array.make m 1 in
  let cap_out = match cap_out with Some c -> c | None -> Array.make m' 1 in
  let next_id = ref 0 in
  let arrive round pending =
    let specs = arrivals ~round ~pending:(Pending.to_list pending) in
    List.map
      (fun (src, dst, demand) ->
        let f = Flow.make ~id:!next_id ~src ~dst ~demand ~release:round () in
        Instance.check_flow ~m ~m' ~cap_in ~cap_out f;
        incr next_id;
        f)
      specs
  in
  let more round = round < stop_arrivals_after in
  drive ?max_rounds ~m ~m' ~cap_in ~cap_out ~arrive ~more policy
