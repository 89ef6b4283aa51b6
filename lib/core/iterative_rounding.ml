open Flowsched_switch
module Model = Flowsched_lp.Model
module Simplex = Flowsched_lp.Simplex
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_iterations = Metrics.counter "ir.iterations"
let c_forced = Metrics.counter "ir.forced_fixes"

type diagnostics = {
  iterations : int;
  forced : int;
  lp_objective : float;
  assignment_cost : float;
  backlog : int;
}

(* Only exact zeros are dropped from supports: nonbasic simplex variables
   are identically 0., and keeping every strictly positive value means the
   previous optimum remains exactly feasible for the relaxed LP(l+1). *)
let eps_zero = 0.

let objective_term (f : Flow.t) t =
  (float_of_int (t - f.Flow.release) /. float_of_int f.Flow.demand) +. 0.5

(* Model-independent key for one basic variable of an optimal basis: a
   structural variable b_{e,t} or the surplus of flow e's demand row.
   Interval rows are regrouped every iteration, so their slacks are not
   carried over (uncovered Le rows keep their default basic slack anyway). *)
type warm_key = Wvar of int * int | Wsurplus of int

(* One LP over the current supports.  [supports.(e)] lists the active rounds
   of unfixed flow [e] in increasing order; [intervals] gives, per port, the
   grouped variable intervals as lists of (flow, round) with a right-hand
   side.  Returns the solved values as a hashtable (e, t) -> value, the
   objective, and the optimal basis as warm keys for the next iteration. *)
let solve_lp ?warm inst supports unfixed intervals =
  let model = Model.create () in
  let var = Hashtbl.create 256 in
  let var_rev = Hashtbl.create 256 in
  let demand_row = Hashtbl.create 64 in
  let demand_row_rev = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let f = inst.Instance.flows.(e) in
      let terms =
        List.map
          (fun t ->
            let v = Model.add_var ~obj:(objective_term f t) model in
            Hashtbl.add var (e, t) v;
            Hashtbl.add var_rev v (e, t);
            (v, 1.))
          supports.(e)
      in
      let row = Model.add_constraint model terms Model.Ge (float_of_int f.Flow.demand) in
      Hashtbl.replace demand_row e row;
      Hashtbl.replace demand_row_rev row e)
    unfixed;
  List.iter
    (fun (members, rhs) ->
      let terms =
        List.filter_map
          (fun (e, t) ->
            match Hashtbl.find_opt var (e, t) with Some v -> Some (v, 1.) | None -> None)
          members
      in
      if terms <> [] then ignore (Model.add_constraint model terms Model.Le rhs))
    intervals;
  (* Keys of dropped variables / fixed flows vanish on translation. *)
  let warm =
    match warm with
    | None | Some [] -> None
    | Some keys ->
        Some
          (List.filter_map
             (function
               | Wvar (e, t) ->
                   Option.map (fun v -> Simplex.Basic_var v) (Hashtbl.find_opt var (e, t))
               | Wsurplus e ->
                   Option.map (fun r -> Simplex.Basic_slack r) (Hashtbl.find_opt demand_row e))
             keys)
  in
  let res = Simplex.solve_or_fail ?warm model in
  let values = Hashtbl.create 256 in
  Hashtbl.iter (fun key v -> Hashtbl.replace values key res.Simplex.values.(v)) var;
  let basis_keys =
    Array.to_list res.Simplex.basis
    |> List.filter_map (function
         | Simplex.Basic_var v ->
             Option.map (fun (e, t) -> Wvar (e, t)) (Hashtbl.find_opt var_rev v)
         | Simplex.Basic_slack r ->
             Option.map (fun e -> Wsurplus e) (Hashtbl.find_opt demand_row_rev r)
         | Simplex.Nonbasic_upper _ -> None (* this model declares no bounds *))
  in
  (values, res.Simplex.objective, basis_keys)

(* Initial intervals: fixed windows of four rounds with rhs 4 c_p, per port
   (constraint (7)). *)
let initial_intervals inst supports unfixed =
  let horizon =
    List.fold_left
      (fun acc e -> List.fold_left (fun acc t -> max acc (t + 1)) acc supports.(e))
      1 unfixed
  in
  let nwindows = (horizon + 3) / 4 in
  let win_in = Array.init inst.Instance.m (fun _ -> Array.make nwindows []) in
  let win_out = Array.init inst.Instance.m' (fun _ -> Array.make nwindows []) in
  List.iter
    (fun e ->
      let f = inst.Instance.flows.(e) in
      List.iter
        (fun t ->
          let a = t / 4 in
          win_in.(f.Flow.src).(a) <- (e, t) :: win_in.(f.Flow.src).(a);
          win_out.(f.Flow.dst).(a) <- (e, t) :: win_out.(f.Flow.dst).(a))
        supports.(e))
    unfixed;
  let intervals = ref [] in
  let collect caps windows =
    Array.iteri
      (fun p per_window ->
        Array.iter
          (fun members ->
            if members <> [] then
              intervals := (members, 4. *. float_of_int caps.(p)) :: !intervals)
          per_window)
      windows
  in
  collect inst.Instance.cap_in win_in;
  collect inst.Instance.cap_out win_out;
  !intervals

(* Regrouped intervals for iterations >= 1: per port, sort surviving
   variables by round (ties by flow id) and greedily group until the group's
   LP(l-1) volume first exceeds 4 c_p.  The group's rhs is its own volume
   (Size), making LP(l) a relaxation of LP(l-1). *)
let regrouped_intervals inst supports unfixed values =
  let by_in = Array.make inst.Instance.m [] in
  let by_out = Array.make inst.Instance.m' [] in
  List.iter
    (fun e ->
      let f = inst.Instance.flows.(e) in
      List.iter
        (fun t ->
          by_in.(f.Flow.src) <- (t, e) :: by_in.(f.Flow.src);
          by_out.(f.Flow.dst) <- (t, e) :: by_out.(f.Flow.dst))
        supports.(e))
    unfixed;
  let intervals = ref [] in
  let collect caps by_port =
    Array.iteri
      (fun p entries ->
        if entries <> [] then begin
          let sorted = List.sort compare entries in
          let threshold = 4. *. float_of_int caps.(p) in
          let group = ref [] and volume = ref 0. in
          let flush () =
            if !group <> [] then begin
              intervals := (List.rev !group, !volume) :: !intervals;
              group := [];
              volume := 0.
            end
          in
          List.iter
            (fun (t, e) ->
              let v = try Hashtbl.find values (e, t) with Not_found -> 0. in
              group := (e, t) :: !group;
              volume := !volume +. v;
              if !volume > threshold then flush ())
            sorted;
          flush ()
        end)
      by_port
  in
  collect inst.Instance.cap_in by_in;
  collect inst.Instance.cap_out by_out;
  !intervals

let run_loop ?horizon ~warm_start inst =
  let n = Instance.n inst in
  let horizon =
    match horizon with Some h -> h | None -> Art_lp.default_horizon inst
  in
  let supports =
    Array.map
      (fun (f : Flow.t) ->
        List.init (horizon - f.Flow.release) (fun i -> f.Flow.release + i))
      inst.Instance.flows
  in
  let schedule = Schedule.unassigned n in
  let forced = ref 0 in
  let iterations = ref 0 in
  let lp0_objective = ref nan in
  let unfixed = ref (List.init n (fun e -> e)) in
  let last_values = ref None in
  (* LP(l+1) is a relaxation of LP(l) restricted to the surviving support,
     so the previous optimal basis stays primal feasible and seeds the next
     solve (phase 1 is skipped entirely on acceptance). *)
  let warm = ref None in
  while !unfixed <> [] do
    let intervals =
      match !last_values with
      | None -> initial_intervals inst supports !unfixed
      | Some values -> regrouped_intervals inst supports !unfixed values
    in
    let values, objective, basis_keys =
      Trace.with_span "ir.lp"
        ~args:(fun () -> [ ("unfixed", Flowsched_util.Json.Int (List.length !unfixed)) ])
        (fun () ->
          solve_lp ?warm:(if warm_start then !warm else None) inst supports !unfixed intervals)
    in
    warm := Some basis_keys;
    incr iterations;
    Metrics.incr c_iterations;
    if Float.is_nan !lp0_objective then lp0_objective := objective;
    (* Shrink supports, fix integral flows. *)
    let progressed = ref false in
    let still_unfixed = ref [] in
    List.iter
      (fun e ->
        let f = inst.Instance.flows.(e) in
        let demand = float_of_int f.Flow.demand in
        let old_len = List.length supports.(e) in
        let alive =
          List.filter
            (fun t ->
              match Hashtbl.find_opt values (e, t) with
              | Some v -> v > eps_zero
              | None -> false)
            supports.(e)
        in
        supports.(e) <- alive;
        if List.length alive < old_len then progressed := true;
        let best_t, best_v =
          List.fold_left
            (fun (bt, bv) t ->
              let v = Hashtbl.find values (e, t) in
              if v > bv then (t, v) else (bt, bv))
            (-1, 0.) alive
        in
        if best_v >= demand -. 1e-6 && best_t >= 0 then begin
          Schedule.assign schedule e best_t;
          progressed := true
        end
        else still_unfixed := e :: !still_unfixed)
      !unfixed;
    let remaining = List.rev !still_unfixed in
    if (not !progressed) && remaining <> [] then begin
      (* Numerical last resort: fix the flow whose largest variable is
         closest to integral.  Should not trigger on healthy instances. *)
      let e_best = ref (-1) and t_best = ref (-1) and v_best = ref (-1.) in
      List.iter
        (fun e ->
          List.iter
            (fun t ->
              let v = Hashtbl.find values (e, t) in
              if v > !v_best then begin
                v_best := v;
                e_best := e;
                t_best := t
              end)
            supports.(e))
        remaining;
      if !e_best >= 0 then begin
        Schedule.assign schedule !e_best !t_best;
        incr forced;
        Metrics.incr c_forced;
        unfixed := List.filter (fun e -> e <> !e_best) remaining
      end
      else failwith "Iterative_rounding.run: empty support for unfixed flow"
    end
    else unfixed := remaining;
    last_values := Some values
  done;
  let assignment_cost =
    Array.fold_left
      (fun acc (f : Flow.t) ->
        acc +. objective_term f (Schedule.round_of schedule f.Flow.id))
      0. inst.Instance.flows
  in
  let backlog = Schedule.max_interval_excess inst schedule in
  ( schedule,
    {
      iterations = !iterations;
      forced = !forced;
      lp_objective = !lp0_objective;
      assignment_cost;
      backlog;
    } )

let run ?horizon ?(warm_start = true) inst =
  Trace.with_span "ir.run"
    ~args:(fun () -> [ ("flows", Flowsched_util.Json.Int (Instance.n inst)) ])
    (fun () -> run_loop ?horizon ~warm_start inst)
