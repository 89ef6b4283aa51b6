open Flowsched_switch

(* Flows ordered by release then id; DFS assigns them rounds while keeping
   running port loads. *)
let order inst =
  let ids = Array.init (Instance.n inst) (fun i -> i) in
  Array.sort
    (fun a b -> Flow.compare inst.Instance.flows.(a) inst.Instance.flows.(b))
    ids;
  ids

type loads = { load_in : int array array; load_out : int array array }

let make_loads inst horizon =
  {
    load_in = Array.make_matrix inst.Instance.m horizon 0;
    load_out = Array.make_matrix inst.Instance.m' horizon 0;
  }

let fits inst loads (f : Flow.t) t =
  loads.load_in.(f.Flow.src).(t) + f.Flow.demand <= inst.Instance.cap_in.(f.Flow.src)
  && loads.load_out.(f.Flow.dst).(t) + f.Flow.demand <= inst.Instance.cap_out.(f.Flow.dst)

let place loads (f : Flow.t) t sign =
  loads.load_in.(f.Flow.src).(t) <- loads.load_in.(f.Flow.src).(t) + (sign * f.Flow.demand);
  loads.load_out.(f.Flow.dst).(t) <- loads.load_out.(f.Flow.dst).(t) + (sign * f.Flow.demand)

let feasible_with_rho inst ~rho =
  if rho < 1 then invalid_arg "Exact.feasible_with_rho: rho must be >= 1";
  let n = Instance.n inst in
  if n = 0 then Some (Schedule.make [||])
  else begin
    let horizon = Instance.last_release inst + rho in
    let loads = make_loads inst horizon in
    let ids = order inst in
    let assignment = Array.make n (-1) in
    let rec go k =
      if k = n then true
      else begin
        let f = inst.Instance.flows.(ids.(k)) in
        let rec try_round t =
          if t >= f.Flow.release + rho then false
          else if fits inst loads f t then begin
            place loads f t 1;
            assignment.(ids.(k)) <- t;
            if go (k + 1) then true
            else begin
              place loads f t (-1);
              assignment.(ids.(k)) <- -1;
              try_round (t + 1)
            end
          end
          else try_round (t + 1)
        in
        try_round f.Flow.release
      end
    in
    if go 0 then Some (Schedule.make assignment) else None
  end

let min_max_response inst =
  let hi = Instance.horizon inst in
  let rec try_rho rho =
    if rho > hi then None
    else
      match feasible_with_rho inst ~rho with
      | Some s -> Some (rho, s)
      | None -> try_rho (rho + 1)
  in
  try_rho 1

let min_total_response ?horizon inst =
  let n = Instance.n inst in
  if n = 0 then (0, Schedule.make [||])
  else begin
    let horizon = match horizon with Some h -> h | None -> Instance.horizon inst in
    let loads = make_loads inst horizon in
    let ids = order inst in
    let assignment = Array.make n (-1) in
    let best_cost = ref max_int in
    let best = ref None in
    let rec go k cost =
      (* every remaining flow has response >= 1 *)
      if cost + (n - k) >= !best_cost then ()
      else if k = n then begin
        best_cost := cost;
        best := Some (Array.copy assignment)
      end
      else begin
        let f = inst.Instance.flows.(ids.(k)) in
        for t = f.Flow.release to horizon - 1 do
          if fits inst loads f t then begin
            place loads f t 1;
            assignment.(ids.(k)) <- t;
            go (k + 1) (cost + (t + 1 - f.Flow.release));
            place loads f t (-1);
            assignment.(ids.(k)) <- -1
          end
        done
      end
    in
    go 0 0;
    match !best with
    | Some a -> (!best_cost, Schedule.make a)
    | None -> failwith "Exact.min_total_response: no schedule within horizon"
  end
