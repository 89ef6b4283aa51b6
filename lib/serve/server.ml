open Flowsched_switch
module Bmatching = Flowsched_bipartite.Bmatching
module Pending = Flowsched_online.Policy.Pending
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace
module J = Flowsched_util.Json

let c_slots = Metrics.counter "serve.slots"
let c_admitted = Metrics.counter "serve.flows_admitted"
let c_completed = Metrics.counter "serve.flows_completed"
let c_stalled = Metrics.counter "serve.stalled_slots"
let h_latency = Metrics.histogram "serve.slot_decision_seconds"

type core = Policy of Flowsched_online.Policy.t | Incremental

type config = {
  m : int;
  m' : int;
  cap_in : int array;
  cap_out : int array;
  queue_cap : int;
  buffer_cap : int;
  max_slots : int option;
  idle_limit : int;
  status_every : int;
}

let config ?cap_in ?cap_out ?(queue_cap = max_int) ?(buffer_cap = max_int) ?max_slots
    ?(idle_limit = 10_000) ?(status_every = 0) ~m ~m' () =
  if m < 1 || m' < 1 then invalid_arg "Server.config: empty switch side";
  let cap_in = match cap_in with Some c -> Array.copy c | None -> Array.make m 1 in
  let cap_out = match cap_out with Some c -> Array.copy c | None -> Array.make m' 1 in
  if Array.length cap_in <> m || Array.length cap_out <> m' then
    invalid_arg "Server.config: capacity array length";
  if queue_cap < 1 || buffer_cap < 1 || idle_limit < 1 then
    invalid_arg "Server.config: caps and idle_limit must be positive";
  (match max_slots with
  | Some n when n < 0 -> invalid_arg "Server.config: negative max_slots"
  | _ -> ());
  if status_every < 0 then invalid_arg "Server.config: negative status_every";
  { m; m'; cap_in; cap_out; queue_cap; buffer_cap; max_slots; idle_limit; status_every }

type status = {
  slot : int;
  pending : int;
  buffered : int;
  arrived : int;
  completed : int;
  flows_per_sec : float;
  p50_latency : float;
  p99_latency : float;
}

type outcome = {
  slots : int;
  arrived : int;
  completed : int;
  sum_response : int;
  max_response : int;
  makespan : int;
  idle_slots : int;
  stalled_slots : int;
  peak_pending : int;
  final_pending : int;
  final_buffered : int;
  interrupted : bool;
}

(* A scheduling core, uniform across the two implementations: admit a batch
   of flows, then return the releases of the flows scheduled this slot. *)
type mode = { admit : Flow.t list -> unit; step : int -> int list; count : unit -> int }

let policy_mode (cfg : config) (policy : Flowsched_online.Policy.t) =
  let pending = Pending.create () in
  let admit batch = List.iter (Pending.push pending) batch in
  let step slot =
    let queue = Pending.queue pending in
    let ctx =
      {
        Flowsched_online.Policy.m = cfg.m;
        m' = cfg.m';
        cap_in = cfg.cap_in;
        cap_out = cfg.cap_out;
        round = slot;
        queue;
      }
    in
    let selected = policy.Flowsched_online.Policy.select ctx in
    Pending.remove pending selected;
    List.map (fun i -> queue.(i).Flow.release) selected
  in
  { admit; step; count = (fun () -> Pending.length pending) }

let incremental_mode (cfg : config) =
  let inc =
    Bmatching.incremental ~nl:cfg.m ~nr:cfg.m' ~cap_in:cfg.cap_in ~cap_out:cfg.cap_out
  in
  let release_of = Hashtbl.create 1024 in
  let admit batch =
    List.iter
      (fun (f : Flow.t) ->
        if f.Flow.demand <> 1 then
          invalid_arg "Server.run: the Incremental core requires unit demands";
        Bmatching.Incremental.add inc ~id:f.Flow.id ~src:f.Flow.src ~dst:f.Flow.dst;
        Hashtbl.add release_of f.Flow.id f.Flow.release)
      batch
  in
  let step _slot =
    List.map
      (fun id ->
        let r = Hashtbl.find release_of id in
        Hashtbl.remove release_of id;
        r)
      (Bmatching.Incremental.take_matched inc)
  in
  { admit; step; count = (fun () -> Bmatching.Incremental.pending inc) }

let run ?(on_status = fun (_ : status) -> ()) ?stop (cfg : config) core source =
  Trace.with_span "serve.run" (fun () ->
      let interrupted = match stop with Some f -> f | None -> ref false in
      let { admit; step; count } =
        match core with Policy p -> policy_mode cfg p | Incremental -> incremental_mode cfg
      in
      let buffer = Queue.create () in
      let next_id = ref 0 in
      let src_slot = ref 0 in
      let slot = ref 0 in
      let arrived = ref 0 and completed = ref 0 in
      let sum_resp = ref 0 and max_resp = ref 0 and makespan = ref 0 in
      let idle = ref 0 and stalled = ref 0 and peak = ref 0 in
      let idle_streak = ref 0 in
      let was_interrupted = ref false in
      let stop_now = ref false in
      let last_time = ref (Unix.gettimeofday ()) in
      let last_completed = ref 0 in
      let src_open () = (not !was_interrupted) && Source.more source !src_slot in
      while
        (not !stop_now) && (src_open () || (not (Queue.is_empty buffer)) || count () > 0)
      do
        match cfg.max_slots with
        | Some cap when !slot >= cap -> stop_now := true
        | _ ->
            if !interrupted then was_interrupted := true;
            (* 1. pull one source slot, unless the buffer pushes back *)
            if src_open () then begin
              if Queue.length buffer < cfg.buffer_cap then begin
                List.iter (fun spec -> Queue.push spec buffer) (Source.pull source !src_slot);
                incr src_slot
              end
              else begin
                incr stalled;
                Metrics.incr c_stalled
              end
            end;
            (* 2. admit while the pending queue has room *)
            let room = cfg.queue_cap - count () in
            let batch = ref [] in
            let admitted = ref 0 in
            while !admitted < room && not (Queue.is_empty buffer) do
              let src, dst, demand = Queue.pop buffer in
              batch := Flow.make ~id:!next_id ~src ~dst ~demand ~release:!slot () :: !batch;
              incr next_id;
              incr admitted
            done;
            admit (List.rev !batch);
            arrived := !arrived + !admitted;
            Metrics.incr ~by:!admitted c_admitted;
            (* 3. schedule this slot *)
            let t0 = Unix.gettimeofday () in
            let releases = step !slot in
            Metrics.observe h_latency (Unix.gettimeofday () -. t0);
            Metrics.incr c_slots;
            (* 4. fold completions into streaming stats *)
            let k = List.length releases in
            if k > 0 then begin
              completed := !completed + k;
              Metrics.incr ~by:k c_completed;
              List.iter
                (fun r ->
                  let resp = !slot - r + 1 in
                  sum_resp := !sum_resp + resp;
                  if resp > !max_resp then max_resp := resp)
                releases;
              makespan := !slot + 1;
              idle_streak := 0
            end
            else begin
              if count () > 0 then incr idle;
              if (not (src_open ())) && Queue.is_empty buffer && count () > 0 then begin
                incr idle_streak;
                if !idle_streak >= cfg.idle_limit then stop_now := true
              end
            end;
            let pc = count () in
            if pc > !peak then peak := pc;
            if cfg.status_every > 0 && (!slot + 1) mod cfg.status_every = 0 then begin
              let now = Unix.gettimeofday () in
              let dt = now -. !last_time in
              let fps =
                if dt <= 0. then 0.
                else float_of_int (!completed - !last_completed) /. dt
              in
              last_time := now;
              last_completed := !completed;
              on_status
                {
                  slot = !slot;
                  pending = pc;
                  buffered = Queue.length buffer;
                  arrived = !arrived;
                  completed = !completed;
                  flows_per_sec = fps;
                  p50_latency = Metrics.histogram_quantile h_latency 0.5;
                  p99_latency = Metrics.histogram_quantile h_latency 0.99;
                }
            end;
            incr slot
      done;
      {
        slots = !slot;
        arrived = !arrived;
        completed = !completed;
        sum_response = !sum_resp;
        max_response = !max_resp;
        makespan = !makespan;
        idle_slots = !idle;
        stalled_slots = !stalled;
        peak_pending = !peak;
        final_pending = count ();
        final_buffered = Queue.length buffer;
        interrupted = !was_interrupted;
      })

let mean_response o =
  if o.completed = 0 then nan else float_of_int o.sum_response /. float_of_int o.completed

let outcome_to_json o =
  J.Obj
    [
      ("slots", J.Int o.slots);
      ("arrived", J.Int o.arrived);
      ("completed", J.Int o.completed);
      ("sum_response", J.Int o.sum_response);
      ("max_response", J.Int o.max_response);
      ("makespan", J.Int o.makespan);
      ("idle_slots", J.Int o.idle_slots);
      ("stalled_slots", J.Int o.stalled_slots);
      ("peak_pending", J.Int o.peak_pending);
      ("final_pending", J.Int o.final_pending);
      ("final_buffered", J.Int o.final_buffered);
      ("interrupted", J.Bool o.interrupted);
    ]

let status_to_json s =
  J.Obj
    [
      ("slot", J.Int s.slot);
      ("pending", J.Int s.pending);
      ("buffered", J.Int s.buffered);
      ("arrived", J.Int s.arrived);
      ("completed", J.Int s.completed);
      ("flows_per_sec", J.float s.flows_per_sec);
      ("p50_latency", J.float s.p50_latency);
      ("p99_latency", J.float s.p99_latency);
    ]
