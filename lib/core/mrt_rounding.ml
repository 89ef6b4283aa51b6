open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_lp_solves = Metrics.counter "mrt.round_lp_solves"
let c_fallback_drops = Metrics.counter "mrt.fallback_drops"

type outcome = {
  schedule : Schedule.t;
  overflow : int;
  bound : int;
  within_guarantee : bool;
  lp_solves : int;
  fallback_drops : int;
}

type row_key = bool * int * int (* is_input, port, round *)

let round_loop ?start ?first inst active =
  let n = Instance.n inst in
  let dmax = Instance.dmax inst in
  let bound = max 0 ((2 * dmax) - 1) in
  let supports = Array.init n active in
  let fixed = Array.make n (-1) in
  let fixed_load : (row_key, int) Hashtbl.t = Hashtbl.create 64 in
  let load key = try Hashtbl.find fixed_load key with Not_found -> 0 in
  let add_load key d = Hashtbl.replace fixed_load key (load key + d) in
  let cap (is_input, p, _) =
    if is_input then inst.Instance.cap_in.(p) else inst.Instance.cap_out.(p)
  in
  (* Rows still enforced.  A row not in the table is dropped (or was never
     created); dropped rows rely on the potential-load argument for their
     violation bound. *)
  let enforced : (row_key, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun e rounds ->
      let f = inst.Instance.flows.(e) in
      List.iter
        (fun t ->
          Hashtbl.replace enforced (true, f.Flow.src, t) ();
          Hashtbl.replace enforced (false, f.Flow.dst, t) ())
        rounds)
    supports;
  (* Worst-case future load of a row: already-fixed demand plus demands of
     unfixed flows that still have this round in their support. *)
  let potential key =
    let is_input, p, t = key in
    let acc = ref (load key) in
    Array.iteri
      (fun e rounds ->
        if fixed.(e) < 0 then begin
          let f = inst.Instance.flows.(e) in
          let touches = if is_input then f.Flow.src = p else f.Flow.dst = p in
          if touches && List.mem t rounds then acc := !acc + f.Flow.demand
        end)
      supports;
    !acc
  in
  let lp_solves = ref 0 and fallback_drops = ref 0 in
  let unfixed_count = ref n in
  let infeasible = ref false in
  (* Warm basis threaded across re-solves, kept in *global* flow ids: each
     round's sub-instance renumbers flows, so keys are translated in and out
     through [ids].  Keys of since-fixed flows or pruned rounds drop out on
     translation.  The first solve starts from [start], and is [first]'s
     solution when the caller has it. *)
  let warm : Mrt_lp.basis_key list option ref = ref start in
  let first = ref first in
  while !unfixed_count > 0 && not !infeasible do
    (* Build the restricted instance: unfixed flows only, residual caps,
       dropped rows modeled as effectively unconstrained. *)
    let unfixed_ids = ref [] in
    for e = n - 1 downto 0 do
      if fixed.(e) < 0 then unfixed_ids := e :: !unfixed_ids
    done;
    let ids = Array.of_list !unfixed_ids in
    let sub_flows =
      Array.mapi
        (fun i e ->
          let f = inst.Instance.flows.(e) in
          Flow.make ~id:i ~src:f.Flow.src ~dst:f.Flow.dst ~demand:f.Flow.demand
            ~release:f.Flow.release ())
        ids
    in
    (* Sub-instance capacities must dominate demands; residual handling is
       done through the [residual] callback, so plain caps suffice here. *)
    let sub_inst =
      Instance.create ~cap_in:inst.Instance.cap_in ~cap_out:inst.Instance.cap_out
        ~m:inst.Instance.m ~m':inst.Instance.m' sub_flows
    in
    let sub_active i = supports.(ids.(i)) in
    let residual ((is_input, p, t) as key) =
      if Hashtbl.mem enforced key then cap key - load key
      else begin
        (* Dropped row: leave enough room for everything that can still land
           here, i.e. no constraint in practice. *)
        ignore (is_input, p, t);
        Instance.total_demand inst
      end
    in
    incr lp_solves;
    Metrics.incr c_lp_solves;
    let sub_warm =
      Option.map
        (fun keys ->
          let sub_of_global = Hashtbl.create (Array.length ids) in
          Array.iteri (fun i e -> Hashtbl.replace sub_of_global e i) ids;
          List.filter_map
            (function
              | Mrt_lp.Bvar (e, t) ->
                  Option.map (fun i -> Mrt_lp.Bvar (i, t)) (Hashtbl.find_opt sub_of_global e)
              | Mrt_lp.Bub (e, t) ->
                  Option.map (fun i -> Mrt_lp.Bub (i, t)) (Hashtbl.find_opt sub_of_global e)
              | Mrt_lp.Bcap _ as k -> Some k)
            keys)
        !warm
    in
    let solved =
      match !first with
      | Some _ as frac ->
          first := None;
          frac
      | None -> Mrt_lp.solve ~residual ?warm:sub_warm sub_inst sub_active
    in
    (match solved with
    | None -> infeasible := true
    | Some frac ->
        warm :=
          Some
            (List.filter_map
               (function
                 | Mrt_lp.Bvar (i, t) -> Some (Mrt_lp.Bvar (ids.(i), t))
                 | Mrt_lp.Bub (i, t) -> Some (Mrt_lp.Bub (ids.(i), t))
                 | Mrt_lp.Bcap _ as k -> Some k)
               frac.Mrt_lp.basis);
        let progressed = ref false in
        (* Shrink supports to the fractional support; freeze integral
           flows. *)
        Array.iteri
          (fun i e ->
            let f = inst.Instance.flows.(e) in
            let old_len = List.length supports.(e) in
            let alive =
              List.filter
                (fun t ->
                  match Hashtbl.find_opt frac.Mrt_lp.values (i, t) with
                  | Some v -> v > 0.
                  | None -> false)
                supports.(e)
            in
            supports.(e) <- alive;
            if List.length alive < old_len then progressed := true;
            let best_t, best_v =
              List.fold_left
                (fun (bt, bv) t ->
                  let v = Hashtbl.find frac.Mrt_lp.values (i, t) in
                  if v > bv then (t, v) else (bt, bv))
                (-1, 0.) alive
            in
            if best_v >= 1. -. 1e-6 && best_t >= 0 then begin
              fixed.(e) <- best_t;
              decr unfixed_count;
              add_load (true, f.Flow.src, best_t) f.Flow.demand;
              add_load (false, f.Flow.dst, best_t) f.Flow.demand;
              progressed := true
            end)
          ids;
        (* Safe row deletions: the row can never exceed cap + bound. *)
        let droppable = ref [] in
        Hashtbl.iter
          (fun key () -> if potential key <= cap key + bound then droppable := key :: !droppable)
          enforced;
        if !droppable <> [] then progressed := true;
        List.iter (Hashtbl.remove enforced) !droppable;
        if not !progressed then begin
          (* Anti-stall fallback: drop the row closest to satisfying the safe
             rule.  Does not occur on healthy vertex solutions. *)
          let best = ref None in
          Hashtbl.iter
            (fun key () ->
              let slack = potential key - (cap key + bound) in
              match !best with
              | Some (_, s) when s <= slack -> ()
              | _ -> best := Some (key, slack))
            enforced;
          match !best with
          | Some (key, _) ->
              incr fallback_drops;
              Metrics.incr c_fallback_drops;
              Hashtbl.remove enforced key
          | None ->
              (* No capacity rows left: the LP is a product of simplices and
                 its vertices are integral, so this cannot be reached. *)
              failwith "Mrt_rounding.round: stalled with no enforced rows"
        end)
  done;
  if !infeasible then None
  else begin
    let schedule = Schedule.make fixed in
    let overflow = Schedule.port_overflow inst schedule in
    Some
      {
        schedule;
        overflow;
        bound;
        within_guarantee = overflow <= bound;
        lp_solves = !lp_solves;
        fallback_drops = !fallback_drops;
      }
  end

let round ?start ?first inst active =
  Trace.with_span "mrt.round"
    ~args:(fun () -> [ ("flows", Flowsched_util.Json.Int (Instance.n inst)) ])
    (fun () -> round_loop ?start ?first inst active)
