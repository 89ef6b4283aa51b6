open Flowsched_switch
module Model = Flowsched_lp.Model
module Simplex = Flowsched_lp.Simplex

type built = {
  model : Model.t;
  var : int -> int -> Model.var option;
  vars_of_flow : (int * Model.var) list array;
  horizon : int;
  instance : Instance.t;
  cap_rows_in : Model.row array array;
  cap_rows_out : Model.row array array;
}

let default_horizon inst =
  let load_in = Array.make inst.Instance.m 0 in
  let load_out = Array.make inst.Instance.m' 0 in
  Array.iter
    (fun (f : Flow.t) ->
      load_in.(f.Flow.src) <- load_in.(f.Flow.src) + f.Flow.demand;
      load_out.(f.Flow.dst) <- load_out.(f.Flow.dst) + f.Flow.demand)
    inst.Instance.flows;
  let worst = ref 1 in
  Array.iteri
    (fun p l -> worst := max !worst ((l + inst.Instance.cap_in.(p) - 1) / inst.Instance.cap_in.(p)))
    load_in;
  Array.iteri
    (fun p l ->
      worst := max !worst ((l + inst.Instance.cap_out.(p) - 1) / inst.Instance.cap_out.(p)))
    load_out;
  Instance.last_release inst + !worst + 1

(* Shared construction: per-flow variables over [release, horizon), demand
   rows; the capacity rows and objective differ between the two programs. *)
let build ~objective_term ~add_capacity_rows ?(explicit_ub_rows = false) ?horizon inst =
  let horizon = match horizon with Some h -> h | None -> default_horizon inst in
  if horizon <= Instance.last_release inst then
    invalid_arg "Art_lp: horizon does not cover all release times";
  let model = Model.create () in
  let n = Instance.n inst in
  let tbl = Hashtbl.create (4 * n) in
  let cap_rows_in = Array.make_matrix inst.Instance.m horizon (-1) in
  let cap_rows_out = Array.make_matrix inst.Instance.m' horizon (-1) in
  let vars_of_flow = Array.make n [] in
  Array.iter
    (fun (f : Flow.t) ->
      let e = f.Flow.id in
      let vars = ref [] in
      for t = horizon - 1 downto f.Flow.release do
        let obj = objective_term inst f t in
        (* b_{e,t} <= d_e is non-binding at the optimum (the positive
           objective coefficients already force the demand row to hold with
           equality), but declaring it bounds every column for the simplex
           engine; [explicit_ub_rows] instead emits it as constraint rows,
           kept as a parity oracle for tests. *)
        let ub = if explicit_ub_rows then infinity else float_of_int f.Flow.demand in
        let v = Model.add_var ~obj ~ub model in
        if explicit_ub_rows then
          ignore (Model.add_constraint model [ (v, 1.) ] Model.Le (float_of_int f.Flow.demand));
        Hashtbl.add tbl (e, t) v;
        vars := (t, v) :: !vars
      done;
      vars_of_flow.(e) <- !vars;
      (* (2)/(6): the flow is fully scheduled across its rounds *)
      ignore
        (Model.add_constraint model
           (List.map (fun (_, v) -> (v, 1.)) !vars)
           Model.Ge
           (float_of_int f.Flow.demand)))
    inst.Instance.flows;
  add_capacity_rows model inst horizon tbl ~rows_in:cap_rows_in ~rows_out:cap_rows_out;
  {
    model;
    var = (fun e t -> Hashtbl.find_opt tbl (e, t));
    vars_of_flow;
    horizon;
    instance = inst;
    cap_rows_in;
    cap_rows_out;
  }

(* Flows grouped by port, for building capacity rows. *)
let flows_by_port inst =
  let by_in = Array.make inst.Instance.m [] in
  let by_out = Array.make inst.Instance.m' [] in
  Array.iter
    (fun (f : Flow.t) ->
      by_in.(f.Flow.src) <- f :: by_in.(f.Flow.src);
      by_out.(f.Flow.dst) <- f :: by_out.(f.Flow.dst))
    inst.Instance.flows;
  (by_in, by_out)

let round_capacity_rows model inst horizon tbl ~rows_in ~rows_out =
  let by_in, by_out = flows_by_port inst in
  let add caps flows_of_port rows =
    Array.iteri
      (fun p flows ->
        if flows <> [] then
          for t = 0 to horizon - 1 do
            let terms =
              List.filter_map
                (fun (f : Flow.t) ->
                  match Hashtbl.find_opt tbl (f.Flow.id, t) with
                  | Some v -> Some (v, 1.)
                  | None -> None)
                flows
            in
            if terms <> [] then
              rows.(p).(t) <- Model.add_constraint model terms Model.Le (float_of_int caps.(p))
          done)
      flows_of_port
  in
  add inst.Instance.cap_in by_in rows_in;
  add inst.Instance.cap_out by_out rows_out

let interval_capacity_rows model inst horizon tbl ~rows_in ~rows_out =
  let by_in, by_out = flows_by_port inst in
  let nwindows = (horizon + 3) / 4 in
  let add caps flows_of_port rows =
    Array.iteri
      (fun p flows ->
        if flows <> [] then
          for a = 0 to nwindows - 1 do
            let terms = ref [] in
            for t = 4 * a to min ((4 * a) + 3) (horizon - 1) do
              List.iter
                (fun (f : Flow.t) ->
                  match Hashtbl.find_opt tbl (f.Flow.id, t) with
                  | Some v -> terms := (v, 1.) :: !terms
                  | None -> ())
                flows
            done;
            if !terms <> [] then begin
              let r = Model.add_constraint model !terms Model.Le (4. *. float_of_int caps.(p)) in
              for t = 4 * a to min ((4 * a) + 3) (horizon - 1) do
                rows.(p).(t) <- r
              done
            end
          done)
      flows_of_port
  in
  add inst.Instance.cap_in by_in rows_in;
  add inst.Instance.cap_out by_out rows_out

let build_round_lp ?explicit_ub_rows ?horizon inst =
  let objective_term inst (f : Flow.t) t =
    let kappa = float_of_int (Instance.kappa inst f) in
    (float_of_int (t - f.Flow.release) /. float_of_int f.Flow.demand) +. (1. /. (2. *. kappa))
  in
  build ~objective_term ~add_capacity_rows:round_capacity_rows ?explicit_ub_rows ?horizon
    inst

let build_interval_lp ?explicit_ub_rows ?horizon inst =
  let objective_term _inst (f : Flow.t) t =
    (float_of_int (t - f.Flow.release) /. float_of_int f.Flow.demand) +. 0.5
  in
  build ~objective_term ~add_capacity_rows:interval_capacity_rows ?explicit_ub_rows
    ?horizon inst

(* D(u): relax the capacity rows with multipliers u >= 0 and what is left
   splits by flow, each putting its whole demand on its cheapest round under
   the prices c_{e,t} + u_{src,t} + u_{dst,t}.  Every row a round's column
   sits in is charged once, so a window row of LP (5)-(8) counts once too. *)
let dual_bound built u =
  let model = built.model in
  if Array.length u <> Model.num_rows model then
    invalid_arg "Art_lp.dual_bound: one multiplier per model row";
  let price rows p t =
    let r = rows.(p).(t) in
    if r < 0 then 0.
    else if u.(r) >= 0. then u.(r)
    else invalid_arg "Art_lp.dual_bound: negative capacity multiplier"
  in
  let flows = built.instance.Instance.flows in
  let d = ref 0. in
  Array.iteri
    (fun e vars ->
      let f = flows.(e) in
      let cheapest =
        List.fold_left
          (fun acc (t, v) ->
            Float.min acc
              (Model.objective_coeff model v
              +. price built.cap_rows_in f.Flow.src t
              +. price built.cap_rows_out f.Flow.dst t))
          infinity vars
      in
      d := !d +. (float_of_int f.Flow.demand *. cheapest))
    built.vars_of_flow;
  let charge rows =
    Array.iteri
      (fun p of_round ->
        Array.iteri
          (fun t r ->
            if r >= 0 && (t = 0 || of_round.(t - 1) <> r) then
              d := !d -. (Model.row_rhs model r *. price rows p t))
          of_round)
      rows
  in
  charge built.cap_rows_in;
  charge built.cap_rows_out;
  !d

type bound = {
  total : float;
  average : float;
  fractional : float array;
  dual_bound : float;
}

(* Start from greedy max-card's schedule: one column per demand row plus the
   capacity slacks is a feasible basis, so phase 1 is skipped.  A flow whose
   round lies past a caller's short horizon has no column and is left out,
   and the simplex's warm-start fallback takes over. *)
let crash_basis built =
  let sigma = Baselines.greedy_maxcard built.instance in
  Array.fold_right
    (fun (f : Flow.t) acc ->
      match built.var f.Flow.id (Schedule.round_of sigma f.Flow.id) with
      | Some v -> Simplex.Basic_var v :: acc
      | None -> acc)
    built.instance.Instance.flows []

let bound_of_solution built denom =
  let res = Simplex.solve_or_fail ~warm:(crash_basis built) built.model in
  let fractional = Array.make (Instance.n built.instance) 0. in
  Array.iteri
    (fun e vars ->
      fractional.(e) <-
        List.fold_left
          (fun acc (_, v) ->
            acc +. (Model.objective_coeff built.model v *. res.Simplex.values.(v)))
          0. vars)
    built.vars_of_flow;
  let total = res.Simplex.objective in
  let certified =
    dual_bound built (Array.map (fun y -> Float.max 0. (-.y)) res.Simplex.duals)
  in
  if abs_float (certified -. total)
     > Flowsched_lp.Tol.dual_gap *. Float.max 1. (abs_float total)
  then
    failwith
      (Printf.sprintf "Art_lp: LP optimum %.17g and its dual bound D(u*) = %.17g disagree"
         total certified);
  {
    total;
    average = (if denom <= 0. then nan else total /. denom);
    fractional;
    dual_bound = certified;
  }

let lower_bound ?horizon inst =
  bound_of_solution (build_round_lp ?horizon inst) (float_of_int (Instance.n inst))

let weighted_lower_bound ?horizon inst ~weights =
  if Array.length weights <> Instance.n inst then
    invalid_arg "Art_lp.weighted_lower_bound: one weight per flow";
  Array.iter
    (fun w -> if w < 0. then invalid_arg "Art_lp.weighted_lower_bound: negative weight")
    weights;
  let objective_term inst (f : Flow.t) t =
    let kappa = float_of_int (Instance.kappa inst f) in
    weights.(f.Flow.id)
    *. ((float_of_int (t - f.Flow.release) /. float_of_int f.Flow.demand)
       +. (1. /. (2. *. kappa)))
  in
  bound_of_solution
    (build ~objective_term ~add_capacity_rows:round_capacity_rows ?horizon inst)
    (Array.fold_left ( +. ) 0. weights)
