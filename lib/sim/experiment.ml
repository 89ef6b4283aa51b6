open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Policy = Flowsched_online.Policy

type cell = { workload : string; spec : Scenario.spec; mode : Matrix.mode; lp : bool }
type entry = { name : string; art : float; mrt : int }

type bound = {
  kind : string;
  avg : float;
  max : float;
  error : string option;
  lp_counters : Metrics.snapshot option;
}

type result = { cell : cell; flows : int; entries : entry list; bound : bound; wall_s : float }

let grid ~kinds ~modes ~m ~rates ~rounds ~max_demand ~seeds ~lp =
  let ( let* ) = Result.bind in
  let* parsed =
    List.fold_right
      (fun w acc ->
        let* acc = acc in
        let* kind = Scenario.of_string w in
        Ok ((w, kind) :: acc))
      kinds (Ok [])
  in
  let each xs f = List.concat_map f xs in
  Ok
    (each parsed (fun (workload, kind) ->
         each modes (fun mode ->
             each rates (fun rate ->
                 each rounds (fun rounds ->
                     List.map
                       (fun seed ->
                         { workload; spec = { Scenario.kind; m; rate; rounds; max_demand; seed }; mode; lp })
                       seeds)))))

let describe c =
  let s = c.spec in
  Printf.sprintf "%s %s m=%d rate=%.1f T=%d seed=%d lp=%b" c.workload
    (Matrix.mode_to_string c.mode) s.Scenario.m s.Scenario.rate s.Scenario.rounds
    s.Scenario.seed c.lp

let no_bound = { kind = "none"; avg = nan; max = nan; error = None; lp_counters = None }

(* Test seam: when set, the LP section of a cell raises this exception
   instead of solving — the only way to exercise the graceful-degradation
   path deterministically (real Iteration_limit needs a pathological
   instance far too slow for the suite). *)
let lp_failure_for_tests : exn option ref = ref None

let c_lp_errors = Metrics.counter "sweep.lp_errors"

(* The one LP section of a grid cell.  The simplex counts are bracketed
   with registry snapshots (NOT a reset: a reset would wipe the other
   cells' contribution to the process totals, and with it the guarantee
   that merged --jobs N registry totals equal a --jobs 1 run); the diff
   rides back through the worker pool with the rest of the result.  One
   pathological cell (pivot-budget blowout, infeasibility surfacing as
   Failure) must not abort the whole grid: it reports nan bounds plus the
   error text instead. *)
let lp_bound ~kind ~makespan inst =
  let before = Metrics.snapshot () in
  let lp_counters () =
    Some
      (List.filter
         (fun (name, _) -> String.starts_with ~prefix:"simplex." name)
         (Metrics.diff (Metrics.snapshot ()) before))
  in
  try
    Option.iter raise !lp_failure_for_tests;
    (* The horizon must cover the heuristics' schedules for Lemma 3.1 to
       bound them. *)
    let horizon = max (Flowsched_core.Art_lp.default_horizon inst) makespan in
    let bound = Flowsched_core.Art_lp.lower_bound ~horizon inst in
    let rho = Flowsched_core.Mrt_scheduler.min_fractional_rho inst in
    let avg = bound.Flowsched_core.Art_lp.average in
    { kind; avg; max = float_of_int rho; error = None; lp_counters = lp_counters () }
  with (Flowsched_lp.Simplex.Iteration_limit _ | Failure _) as e ->
    Metrics.incr c_lp_errors;
    { kind; avg = nan; max = nan; error = Some (Printexc.to_string e); lp_counters = lp_counters () }

(* Every policy's entry and the longest makespan, which the LP horizon
   must cover. *)
let run_policies ?endpoint ?(wrap = Fun.id) policies inst =
  let makespan = ref 0 in
  let entries =
    List.map
      (fun (p : Policy.t) ->
        let r = Engine.run_instance ?endpoint (wrap p) inst in
        makespan := max !makespan r.Engine.makespan;
        { name = p.Policy.name; art = Engine.average_response r; mrt = Engine.max_response r })
      policies
  in
  (entries, !makespan)

let run_cell ~policies cell =
  Flowsched_obs.Trace.with_span "sweep.cell"
    ~args:(fun () -> [ ("cell", Flowsched_util.Json.Str (describe cell)) ])
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let inst = Scenario.instance cell.spec in
  let flows = Instance.n inst in
  let lp kind ~makespan = if cell.lp then lp_bound ~kind ~makespan inst else no_bound in
  let entries, bound =
    if flows = 0 then
      (List.map (fun (p : Policy.t) -> { name = p.Policy.name; art = nan; mrt = 0 }) policies, no_bound)
    else
      match cell.mode with
      | Matrix.Flows ->
          let entries, makespan = run_policies policies inst in
          (entries, lp "lp" ~makespan)
      | Matrix.Endpoint { nodes; node_cap } ->
          let ep = Matrix.endpoint_for inst ~nodes ~node_cap in
          let entries, makespan = run_policies ~endpoint:ep ~wrap:(Matrix.node_guard ep) policies inst in
          let fifo = Flowsched_core.Baselines.fifo_endpoint ep inst in
          let fifo =
            { name = "fifo-endpoint"; art = Schedule.average_response inst fifo; mrt = Schedule.max_response inst fifo }
          in
          (* Node caps only remove schedules, so the port-capacity LP is
             still a valid (relaxed) lower bound for this mode. *)
          (entries @ [ fifo ], lp "lp-relaxed" ~makespan)
      | Matrix.Coflow { groups; max_weight } ->
          let module C = Flowsched_core.Coflow in
          let cof = Matrix.weighted_coflows ~seed:cell.spec.Scenario.seed ~groups ~max_weight inst in
          let entry name sched =
            { name; art = C.weighted_average_response cof sched; mrt = C.max_response cof sched }
          in
          ( [ entry "wsebf" (C.wsebf cof); entry "sebf" (C.sebf cof); entry "flow-fifo" (C.flow_fifo cof) ],
            {
              no_bound with
              kind = "bottleneck";
              avg = C.weighted_bottleneck_bound cof;
              max = float_of_int (C.max_bottleneck_bound cof);
            } )
  in
  { cell; flows; entries; bound; wall_s = Unix.gettimeofday () -. t0 }

(* The one cell fan-out: results come back in input order, so output is
   identical to the sequential path (jobs <= 1 goes through the pool's
   inline mode, which shares the retry, timeout, backoff, and
   fault-injection semantics of the forked path). *)
let map_cells ~jobs ?timeout ?(retries = 1) ?faults ?on_result ~describe ~progress ~f items =
  let arr = Array.of_list items in
  let open Flowsched_exec in
  let on_result =
    match on_result with
    | None -> None
    | Some g ->
        (* Only settled successes are worth persisting; a Failed cell
           aborts the run below anyway. *)
        Some (fun job -> function Pool.Done r -> g arr.(job) r | Pool.Failed _ -> ())
  in
  Pool.map ~jobs:(max 1 jobs) ?timeout ~retries ?faults ?on_result
    ~progress:(function
      | Pool.Job_started { job; _ } -> progress (describe arr.(job))
      | Pool.Job_done { job; elapsed; _ } ->
          progress (Printf.sprintf "done %s (%.1fs)" (describe arr.(job)) elapsed)
      | Pool.Job_retried { job; reason; _ } ->
          progress (Printf.sprintf "retrying %s: %s" (describe arr.(job)) reason)
      | Pool.Job_failed { job; reason; _ } ->
          progress (Printf.sprintf "FAILED %s: %s" (describe arr.(job)) reason))
    ~f arr
  |> Array.to_list
  |> List.map (function
       | Pool.Done r -> r
       | Pool.Failed { attempts; reason } ->
           failwith
             (Printf.sprintf "experiment job failed after %d attempts: %s" attempts reason))

let run ~policies ?(progress = ignore) ?(jobs = 1) ?timeout ?retries ?faults ?on_result cells =
  map_cells ~jobs ?timeout ?retries ?faults ?on_result ~describe ~progress
    ~f:(run_cell ~policies) cells

let strip_timing r =
  let timed (name, _) = name = "simplex.phase1_seconds" || name = "simplex.phase2_seconds" in
  let lp_counters = Option.map (List.filter (fun e -> not (timed e))) r.bound.lp_counters in
  { r with wall_s = 0.; bound = { r.bound with lp_counters } }

let fig6_grid ?(m = 6) ?(tries = 3) ?(seed = 1) ?(lp_rounds_limit = 12) ~congestion ~rounds () =
  if tries < 1 then invalid_arg "Experiment.fig6_grid: tries must be >= 1";
  List.concat_map
    (fun c ->
      List.map
        (fun t ->
          let seed = seed + int_of_float (c *. 1_000_000.) + (17 * t) in
          List.init tries (fun trial ->
              {
                workload = "poisson";
                spec =
                  {
                    Scenario.kind = Scenario.Poisson;
                    m;
                    rate = c *. float_of_int m;
                    rounds = t;
                    max_demand = 1;
                    seed = seed + (1000 * trial);
                  };
                mode = Matrix.Flows;
                lp = t <= lp_rounds_limit;
              }))
        rounds)
    congestion

let run_grid ~policies ?(progress = ignore) ?(jobs = 1) rows =
  map_cells ~jobs ~describe:(fun row -> describe (List.hd row)) ~progress rows
    ~f:
      (List.map (fun cell ->
           let r = run_cell ~policies cell in
           match r.bound.error with
           | Some e -> failwith (Printf.sprintf "LP bound of %s failed: %s" (describe cell) e)
           | None -> r))
