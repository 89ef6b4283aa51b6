open Flowsched_switch
module Model = Flowsched_lp.Model
module Simplex = Flowsched_lp.Simplex

type active = int -> int list

let active_of_rho inst rho =
  if rho < 1 then invalid_arg "Mrt_lp.active_of_rho: rho must be >= 1";
  fun e ->
    let r = inst.Instance.flows.(e).Flow.release in
    List.init rho (fun i -> r + i)

let active_of_deadlines inst deadlines =
  if Array.length deadlines <> Instance.n inst then
    invalid_arg "Mrt_lp.active_of_deadlines: deadline per flow required";
  fun e ->
    let r = inst.Instance.flows.(e).Flow.release in
    let d = deadlines.(e) in
    if d < r then invalid_arg "Mrt_lp.active_of_deadlines: deadline before release";
    List.init (d - r + 1) (fun i -> r + i)

type basis_key = Bvar of int * int | Bcap of bool * int * int | Bub of int * int

type fractional = {
  values : (int * int, float) Hashtbl.t;
  rounds : int list;
  basis : basis_key list;
}

let solve ?residual ?warm inst active =
  let n = Instance.n inst in
  let model = Model.create () in
  let var = Hashtbl.create (4 * n) in
  let var_rev = Hashtbl.create (4 * n) in
  (* cap_rows: (is_input, port, round) -> accumulated terms *)
  let cap_terms = Hashtbl.create 64 in
  for e = 0 to n - 1 do
    let f = inst.Instance.flows.(e) in
    let d = float_of_int f.Flow.demand in
    let terms =
      List.map
        (fun t ->
          if t < f.Flow.release then
            invalid_arg "Mrt_lp.solve: active round before release";
          (* x_{e,t} <= 1 is implied by the assignment row, but declaring it
             lets the bounded-variable simplex park the column at either
             bound. *)
          let v = Model.add_var ~ub:1. model in
          Hashtbl.add var (e, t) v;
          Hashtbl.add var_rev v (e, t);
          let push key =
            let cur = try Hashtbl.find cap_terms key with Not_found -> [] in
            Hashtbl.replace cap_terms key ((v, d) :: cur)
          in
          push (true, f.Flow.src, t);
          push (false, f.Flow.dst, t);
          (v, 1.))
        (active e)
    in
    if terms = [] then invalid_arg "Mrt_lp.solve: flow with no active round";
    (* (20): each flow scheduled exactly once *)
    ignore (Model.add_constraint model terms Model.Eq 1.)
  done;
  let rounds = Hashtbl.create 16 in
  let cap_row = Hashtbl.create 64 in
  let cap_row_rev = Hashtbl.create 64 in
  Hashtbl.iter
    (fun ((is_input, p, t) as key) terms ->
      Hashtbl.replace rounds t ();
      let cap =
        match residual with
        | Some f -> f (is_input, p, t)
        | None ->
            if is_input then inst.Instance.cap_in.(p) else inst.Instance.cap_out.(p)
      in
      (* (19): port capacity per active round *)
      let row = Model.add_constraint model terms Model.Le (float_of_int cap) in
      Hashtbl.replace cap_row key row;
      Hashtbl.replace cap_row_rev row key)
    cap_terms;
  (* Translate a caller-level warm basis (keyed by flow/round and capacity
     row) into this model's variable/row ids; keys absent from this model —
     rounds cut from the active sets, capacity rows that no longer exist —
     are simply dropped. *)
  let warm =
    match warm with
    | None | Some [] -> None
    | Some keys ->
        Some
          (List.filter_map
             (function
               | Bvar (e, t) ->
                   Option.map (fun v -> Simplex.Basic_var v) (Hashtbl.find_opt var (e, t))
               | Bcap (i, p, t) ->
                   Option.map
                     (fun r -> Simplex.Basic_slack r)
                     (Hashtbl.find_opt cap_row (i, p, t))
               | Bub (e, t) ->
                   Option.map
                     (fun v -> Simplex.Nonbasic_upper v)
                     (Hashtbl.find_opt var (e, t)))
             keys)
  in
  let res = Simplex.solve ?warm model in
  match res.Simplex.status with
  | Simplex.Infeasible -> None
  | Simplex.Unbounded -> assert false (* objective is constant zero *)
  | Simplex.Optimal ->
      (* Phase 1 declared this LP feasible when its artificials summed to at
         most [Tol.art_infeasible]; hold the reported x to the same
         threshold on the model itself, so no start, cold or warm, can
         report a false "feasible". *)
      if not (Model.is_feasible ~tol:Flowsched_lp.Tol.art_infeasible model res.Simplex.values)
      then failwith "Mrt_lp.solve: the reported optimum violates LP (19)-(21)";
      let values = Hashtbl.create (4 * n) in
      Hashtbl.iter (fun key v -> Hashtbl.replace values key res.Simplex.values.(v)) var;
      let basis =
        Array.to_list res.Simplex.basis
        |> List.filter_map (function
             | Simplex.Basic_var v ->
                 Option.map (fun (e, t) -> Bvar (e, t)) (Hashtbl.find_opt var_rev v)
             | Simplex.Basic_slack r ->
                 Option.map (fun (i, p, t) -> Bcap (i, p, t)) (Hashtbl.find_opt cap_row_rev r)
             | Simplex.Nonbasic_upper v ->
                 Option.map (fun (e, t) -> Bub (e, t)) (Hashtbl.find_opt var_rev v))
      in
      Some { values; rounds = Hashtbl.fold (fun t () acc -> t :: acc) rounds []; basis }
