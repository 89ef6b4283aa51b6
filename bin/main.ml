(* flowsched — command-line interface.

   Subcommands: generate workloads, compute LP lower bounds, run the offline
   approximation algorithms (Theorem 1, Theorem 3), simulate online
   policies, and solve tiny instances exactly. *)

open Cmdliner
open Flowsched_switch
open Flowsched_core
module Scenario = Flowsched_sim.Scenario
module Experiment = Flowsched_sim.Experiment
module Checkpoint = Flowsched_sim.Checkpoint
module Report = Flowsched_sim.Report

(* ----- shared helpers ----- *)

let load_instance path =
  let data =
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_bin path In_channel.input_all
  in
  match Instance.of_string data with
  | Ok inst -> inst
  | Error msg ->
      Printf.eprintf "error: cannot parse %s: %s\n" path msg;
      exit 1

let instance_arg =
  let doc = "Instance file in the flowsched text format ('-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE" ~doc)

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* ----- observability flags (shared by the experiment subcommands) ----- *)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it to $(docv) as Chrome trace-event \
           JSON (load in chrome://tracing or Perfetto).")

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the merged metrics registry (counters/gauges/histograms) to stderr on exit.")

(* Flush the observability sinks: write the trace file and dump the
   registry.  Split out of [with_obs] because interrupt handlers that leave
   via [exit] bypass [Fun.protect] finalizers and must flush explicitly —
   an interrupted sweep still owes the user its partial trace. *)
let finish_obs ~trace ~metrics () =
  (match trace with
  | Some path ->
      Flowsched_obs.Trace.stop ();
      Flowsched_obs.Trace.write path;
      Printf.eprintf "wrote trace %s\n%!" path
  | None -> ());
  if metrics then begin
    prerr_string (Flowsched_obs.Metrics.to_text (Flowsched_obs.Metrics.snapshot ()));
    flush stderr
  end

(* Bracket a subcommand body: enable tracing when requested and, on the way
   out (also on exceptions), write the trace file and dump the registry. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Flowsched_obs.Trace.start ();
  Fun.protect ~finally:(finish_obs ~trace ~metrics) f

(* ----- worker-count and budget flags (shared by the grid commands) ----- *)

(* [--jobs] accepts a positive worker count or "auto" (the runtime's
   recommended domain count).  0 is rejected outright: zero workers cannot
   run anything, and the old silent clamp to 1 hid the typo. *)
let jobs_conv =
  let parse s =
    match s with
    | "auto" -> Ok (Flowsched_exec.Pool.default_jobs ())
    | _ -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "--jobs %s: worker count must be at least 1 (or \"auto\" for the \
                    detected core count)"
                   s))
        | None ->
            Error
              (`Msg (Printf.sprintf "invalid --jobs %S (expected a positive integer or \"auto\")" s)))
  in
  Arg.conv (parse, Format.pp_print_int)

(* "--shard I/N": zero-based shard index out of N workers. *)
let shard_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ i; n ] -> (
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (i, n)
        | Some _, Some _ ->
            Error
              (`Msg
                (Printf.sprintf "--shard %s: need 0 <= I < N (indexes are zero-based)" s))
        | _ -> Error (`Msg (Printf.sprintf "invalid --shard %S (expected I/N)" s)))
    | _ -> Error (`Msg (Printf.sprintf "invalid --shard %S (expected I/N, e.g. 0/4)" s))
  in
  Arg.conv (parse, fun fmt (i, n) -> Format.fprintf fmt "%d/%d" i n)

(* Flags the grid drivers share: [sweep], [merge] and [matrix] read these
   terms, so the commands cannot drift apart in meaning or default. *)
let jobs_term =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Workers for the cell grid: a positive count or $(b,auto) for the detected core \
           count (also the default).  Forking costs more than it saves on a grid of \
           sub-millisecond cells: such grids run faster with $(b,--jobs 1).")

(* Like [--jobs 0], a budget that cannot work is a parse error: a timeout of
   0 or less fails every attempt of every cell, and a negative retry count
   is no budget at all. *)
let timeout_conv =
  let parse s =
    match float_of_string_opt s with
    | Some t when t > 0. -> Ok t
    | Some _ ->
        Error (`Msg (Printf.sprintf "--timeout %s: the per-cell budget must be positive" s))
    | None -> Error (`Msg (Printf.sprintf "invalid --timeout %S (expected seconds)" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let retries_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ ->
        Error (`Msg (Printf.sprintf "--retries %s: the retry budget cannot be negative" s))
    | None -> Error (`Msg (Printf.sprintf "invalid --retries %S (expected a count >= 0)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let timeout_term =
  Arg.(
    value
    & opt (some timeout_conv) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Per-cell attempt timeout in seconds (default: none; 10s under sweep --chaos).")

let retries_term =
  Arg.(
    value
    & opt (some retries_conv) None
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget per cell beyond the first attempt (default 1).")

let checkpoint_term =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Append each completed cell to FILE (JSONL, CRC-sealed per line) as it settles, so \
           an interrupted run can be resumed with --resume.")

let resume_term =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:"Skip cells already present in the --checkpoint file instead of truncating it.")

let ports_term = Arg.(value & opt int 6 & info [ "m" ] ~doc:"Ports per side.")

let seeds_term =
  Arg.(
    value & opt (list int) [ 1 ]
    & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Comma-separated PRNG seeds, one cell each.")

let lp_term =
  Arg.(value & flag & info [ "lp" ] ~doc:"Include the LP lower bounds in every cell (slow).")

let kind_names = String.concat " | " Scenario.names

let parse_or_exit parse s =
  match parse s with
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let print_schedule_stats inst schedule =
  Printf.printf "flows:            %d\n" (Instance.n inst);
  Printf.printf "makespan:         %d\n" (Schedule.makespan schedule);
  Printf.printf "total response:   %d\n" (Schedule.total_response inst schedule);
  Printf.printf "average response: %.3f\n" (Schedule.average_response inst schedule);
  Printf.printf "max response:     %d\n" (Schedule.max_response inst schedule)

let print_assignment schedule n =
  for e = 0 to n - 1 do
    Printf.printf "flow %d -> round %d\n" e (Schedule.round_of schedule e)
  done

let print_timeline inst schedule caps_note =
  Printf.printf "timeline (%s):\n%s" caps_note (Schedule.render_timeline inst schedule)

(* ----- generate ----- *)

let generate kind m rate rounds n max_release max_demand seed =
  let inst =
    try
      match kind with
      (* generate's "uniform" predates the scenario namespace and keeps its
         --n/--max-release knobs rather than the rate * rounds volume. *)
      | "uniform" -> Flowsched_sim.Workload.uniform_total ~m ~n ~max_release ~seed
      | "slack1" -> Open_problem.generate ~seed ~m ~rounds
      | "fig4a" -> Lower_bounds.fig4a_static ~t:(rounds / 2) ~total_rounds:rounds
      | "fig4b" -> Lower_bounds.fig4b_static ()
      | other -> (
          match Scenario.of_string other with
          | Ok k -> Scenario.instance { Scenario.kind = k; m; rate; rounds; max_demand; seed }
          | Error msg ->
              Printf.eprintf "error: %s (also: slack1|fig4a|fig4b)\n" msg;
              exit 1)
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  print_string (Instance.to_string inst)

let generate_cmd =
  let kind =
    Arg.(
      value & pos 0 string "poisson"
      & info [] ~docv:"KIND"
          ~doc:
            ("Any scenario kind — " ^ kind_names
           ^ ", with optional :parameters (e.g. pareto:1.2) — or one of the specials \
              slack1 | fig4a | fig4b."))
  in
  let m = Arg.(value & opt int 8 & info [ "m" ] ~doc:"Ports per side.") in
  let rate = Arg.(value & opt float 4.0 & info [ "rate" ] ~doc:"Poisson arrival rate (M).") in
  let rounds = Arg.(value & opt int 10 & info [ "rounds" ] ~doc:"Generation rounds (T).") in
  let n = Arg.(value & opt int 32 & info [ "n" ] ~doc:"Flow count (uniform).") in
  let max_release =
    Arg.(value & opt int 8 & info [ "max-release" ] ~doc:"Release bound (uniform).")
  in
  let max_demand =
    Arg.(value & opt int 3 & info [ "max-demand" ] ~doc:"Demand bound (poisson-demands).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a workload instance on stdout.")
    Term.(const generate $ kind $ m $ rate $ rounds $ n $ max_release $ max_demand $ seed_term)

(* ----- lp-bound ----- *)

let lp_bound path stats trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let inst = load_instance path in
  let module M = Flowsched_obs.Metrics in
  let before = M.snapshot () in
  let bound = Art_lp.lower_bound inst in
  let rho = Mrt_scheduler.min_fractional_rho inst in
  let lb, ub = Mrt_scheduler.rho_bracket inst in
  Printf.printf "flows:                     %d\n" (Instance.n inst);
  Printf.printf "LP (1)-(4) total response: %.3f\n" bound.Art_lp.total;
  Printf.printf "LP (1)-(4) avg response:   %.3f\n" bound.Art_lp.average;
  Printf.printf "LP (1)-(4) dual bound D(u): %.3f\n" bound.Art_lp.dual_bound;
  Printf.printf "LP (1)-(4) - D(u) gap:     %.3f\n"
    (abs_float (bound.Art_lp.total -. bound.Art_lp.dual_bound));
  Printf.printf "LP (19)-(21) min rho:      %d\n" rho;
  Printf.printf "rho window/FIFO bracket:   [%d, %d]\n" lb ub;
  if stats then begin
    let d = M.diff (M.snapshot ()) before in
    let c name = M.counter_in d ("simplex." ^ name) in
    let g name = M.gauge_in d ("simplex." ^ name) in
    Printf.printf "simplex solves:            %d\n" (c "solves");
    Printf.printf "simplex pivots:            %d\n" (c "pivots");
    Printf.printf "ftran calls:               %d\n" (c "ftran_calls");
    Printf.printf "refactorizations:          %d\n" (c "refactorizations");
    Printf.printf "full pricing scans:        %d\n" (c "full_pricing_scans");
    Printf.printf "partial pricing rounds:    %d\n" (c "partial_pricing_rounds");
    Printf.printf "warm starts accepted:      %d/%d\n" (c "warm_accepted") (c "warm_attempts");
    Printf.printf "phase-1 skipped:           %d\n" (c "phase1_skipped");
    Printf.printf "basis nnz:                 %d\n" (c "basis_nnz");
    Printf.printf "factor nnz:                %d\n" (c "factor_nnz");
    Printf.printf "eta nnz:                   %d\n" (c "eta_nnz");
    Printf.printf "bound flips:               %d\n" (c "bound_flips");
    if c "basis_nnz" > 0 then
      Printf.printf "LU fill-in ratio:          %.3f\n"
        (float_of_int (c "factor_nnz") /. float_of_int (c "basis_nnz"));
    Printf.printf "phase-1 time:              %.4fs\n" (g "phase1_seconds");
    Printf.printf "phase-2 time:              %.4fs\n" (g "phase2_seconds")
  end

let lp_bound_cmd =
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Also print simplex perf counters.")
  in
  Cmd.v
    (Cmd.info "lp-bound"
       ~doc:"Compute the LP lower bounds on average and maximum response time.")
    Term.(const lp_bound $ instance_arg $ stats $ trace_term $ metrics_term)

(* ----- solve-art ----- *)

let solve_art path c show timeline trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let inst = load_instance path in
  let res =
    try Art_scheduler.solve ~c inst
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let d = res.Art_scheduler.diagnostics in
  Printf.printf "FS-ART approximation (Theorem 1), capacity blow-up %dx\n" (1 + c);
  print_schedule_stats inst res.Art_scheduler.schedule;
  Printf.printf "LP lower bound:   %.3f\n" res.Art_scheduler.lp_total;
  Printf.printf "rounding iters:   %d\n" d.Art_scheduler.rounding.Iterative_rounding.iterations;
  Printf.printf "backlog:          %d\n" d.Art_scheduler.rounding.Iterative_rounding.backlog;
  Printf.printf "block length h:   %d\n" d.Art_scheduler.h;
  Printf.printf "valid (1+c caps): %b\n"
    (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
  if show then print_assignment res.Art_scheduler.schedule (Instance.n inst);
  if timeline then
    print_timeline res.Art_scheduler.augmented res.Art_scheduler.schedule
      (Printf.sprintf "(1+c) = %dx capacities" (1 + c))

let timeline_flag =
  Arg.(value & flag & info [ "timeline" ] ~doc:"Print an ASCII port/round load timeline.")

let solve_art_cmd =
  let c =
    Arg.(value & opt int 1 & info [ "c" ] ~doc:"Capacity blow-up parameter (1+c total).")
  in
  let show = Arg.(value & flag & info [ "show-schedule" ] ~doc:"Print the assignment.") in
  Cmd.v
    (Cmd.info "solve-art"
       ~doc:"Minimize average response time offline (unit demands, (1+c) capacities).")
    Term.(const solve_art $ instance_arg $ c $ show $ timeline_flag $ trace_term $ metrics_term)

(* ----- solve-mrt ----- *)

let solve_mrt path rho show timeline trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let inst = load_instance path in
  let infeasible r why =
    Printf.eprintf "error: --rho %d is infeasible: %s\n" r why;
    exit 1
  in
  let sol =
    match rho with
    | None -> Mrt_scheduler.solve inst
    | Some r -> (
        (* The window bound rejects a target below it without an LP. *)
        let lb, _ = Mrt_scheduler.rho_bracket inst in
        if r < lb then infeasible r (Printf.sprintf "the window bound needs rho >= %d" lb);
        try Mrt_scheduler.solve ~rho:r inst
        with Failure _ -> infeasible r "LP (19)-(21) has no solution")
  in
  Printf.printf "FS-MRT (Theorem 3), capacities +%d\n"
    (max 0 ((2 * Instance.dmax inst) - 1));
  print_schedule_stats inst sol.Mrt_scheduler.schedule;
  Printf.printf "fractional rho:   %d\n" sol.Mrt_scheduler.fractional_rho;
  Printf.printf "port overflow:    %d (bound %d)\n"
    sol.Mrt_scheduler.rounding.Mrt_rounding.overflow sol.Mrt_scheduler.rounding.Mrt_rounding.bound;
  Printf.printf "valid (augmented):%b\n"
    (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule);
  if show then print_assignment sol.Mrt_scheduler.schedule (Instance.n inst);
  if timeline then
    print_timeline sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule
      "capacities +2dmax-1"

let solve_mrt_cmd =
  let rho =
    Arg.(value & opt (some int) None & info [ "rho" ] ~doc:"Target max response (default: minimum feasible).")
  in
  let show = Arg.(value & flag & info [ "show-schedule" ] ~doc:"Print the assignment.") in
  Cmd.v
    (Cmd.info "solve-mrt"
       ~doc:"Minimize maximum response time offline (capacities +2dmax-1).")
    Term.(const solve_mrt $ instance_arg $ rho $ show $ timeline_flag $ trace_term $ metrics_term)

(* ----- simulate ----- *)

let policy_of_name name seed =
  match String.lowercase_ascii name with
  | "maxcard" -> Flowsched_online.Heuristics.maxcard
  | "minrtime" -> Flowsched_online.Heuristics.minrtime
  | "maxweight" -> Flowsched_online.Heuristics.maxweight
  | "fifo" -> Flowsched_online.Heuristics.fifo
  | "random" -> Flowsched_online.Heuristics.random_policy ~seed
  | other ->
      Printf.eprintf "error: unknown policy %S (maxcard|minrtime|maxweight|fifo|random)\n"
        other;
      exit 1

let simulate path policy_name seed timeline trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let inst = load_instance path in
  let policy = policy_of_name policy_name seed in
  match Flowsched_sim.Engine.run_instance policy inst with
  | exception Flowsched_sim.Engine.Horizon_exceeded { round; pending } ->
      Printf.eprintf
        "error: policy %s did not drain the queue: %d flows still pending after %d rounds\n"
        policy.Flowsched_online.Policy.name pending round;
      exit 1
  | r ->
      Printf.printf "policy:           %s\n" policy.Flowsched_online.Policy.name;
      print_schedule_stats inst r.Flowsched_sim.Engine.schedule;
      if timeline then print_timeline inst r.Flowsched_sim.Engine.schedule "original capacities"

let simulate_cmd =
  let policy =
    Arg.(
      value & opt string "maxweight"
      & info [ "policy" ] ~doc:"maxcard | minrtime | maxweight | fifo | random")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run an online policy over an instance.")
    Term.(
      const simulate $ instance_arg $ policy $ seed_term $ timeline_flag $ trace_term
      $ metrics_term)

(* ----- serve ----- *)

let serve inst_path core_name seed workload m rate slots max_demand queue_cap buffer_cap
    max_slots idle_limit status_every json trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let module Serve = Flowsched_serve.Server in
  let source, m, m', cap_in, cap_out =
    match Option.map load_instance inst_path with
    | Some inst ->
        ( Flowsched_serve.Source.of_instance inst,
          inst.Instance.m,
          inst.Instance.m',
          Some inst.Instance.cap_in,
          Some inst.Instance.cap_out )
    | None ->
        let kind =
          (* "uniform" was serve's name for the Poisson stream before the
             scenario namespace; generate's "uniform" is a batch-only kind. *)
          match String.lowercase_ascii workload with
          | "uniform" -> Scenario.Poisson
          | name -> parse_or_exit Scenario.of_string name
        in
        let spec = { Scenario.kind; m; rate; rounds = slots; max_demand; seed } in
        let source =
          try Flowsched_serve.Source.of_scenario spec ~horizon:slots
          with Invalid_argument msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1
        in
        let m, m' = Scenario.geometry spec in
        let cap c = match Scenario.port_capacity spec with 1 -> None | d -> Some (Array.make c d) in
        (source, m, m', cap m, cap m')
  in
  let core =
    match String.lowercase_ascii core_name with
    | "incremental" -> Serve.Incremental
    | name -> Serve.Policy (policy_of_name name seed)
  in
  let config =
    Serve.config ?cap_in ?cap_out ?queue_cap ?buffer_cap ?max_slots ~idle_limit ~status_every
      ~m ~m' ()
  in
  let on_status s =
    Printf.eprintf "%s\n%!" (Flowsched_util.Json.to_string ~pretty:false (Serve.status_to_json s))
  in
  let outcome =
    Flowsched_exec.Signals.with_interrupt_flag (fun stop ->
        Serve.run ~on_status ~stop config core source)
  in
  if json then print_endline (Flowsched_util.Json.to_string (Serve.outcome_to_json outcome))
  else begin
    Printf.printf "slots:            %d\n" outcome.Serve.slots;
    Printf.printf "flows:            %d arrived, %d completed\n" outcome.Serve.arrived
      outcome.Serve.completed;
    Printf.printf "avg response:     %.4f\n" (Serve.mean_response outcome);
    Printf.printf "max response:     %d\n" outcome.Serve.max_response;
    Printf.printf "makespan:         %d\n" outcome.Serve.makespan;
    Printf.printf "idle slots:       %d\n" outcome.Serve.idle_slots;
    Printf.printf "stalled slots:    %d\n" outcome.Serve.stalled_slots;
    Printf.printf "peak pending:     %d\n" outcome.Serve.peak_pending;
    if outcome.Serve.final_pending > 0 || outcome.Serve.final_buffered > 0 then
      Printf.printf "left unfinished:  %d pending, %d buffered\n" outcome.Serve.final_pending
        outcome.Serve.final_buffered;
    if outcome.Serve.interrupted then Printf.printf "interrupted:      yes (drained gracefully)\n"
  end

let serve_cmd =
  let inst =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"FILE"
          ~doc:"Replay a fixed instance file instead of a generated stream ('-' for stdin).")
  in
  let core =
    Arg.(
      value & opt string "incremental"
      & info [ "core" ]
          ~doc:
            "Scheduling core: incremental (per-slot matching maintained across slots) or a \
             policy name (maxcard | minrtime | maxweight | fifo | random).")
  in
  let workload =
    Arg.(
      value & opt string "uniform"
      & info [ "workload" ]
          ~doc:
            "Generated stream kind: any streamable scenario (poisson | demands | skewed | \
             hotspot | pareto | lognormal | bursty | diurnal | flash-crowd | bimodal | \
             staircase | crossflow, with optional :parameters, e.g. skewed:1.2 or \
             hotspot:0.3); uniform is a legacy alias for poisson.")
  in
  let m = Arg.(value & opt int 8 & info [ "m" ] ~doc:"Ports per side (stream mode).") in
  let rate =
    Arg.(value & opt float 4.0 & info [ "rate" ] ~doc:"Poisson arrival rate (stream mode).")
  in
  let slots =
    Arg.(
      value & opt int 100_000
      & info [ "slots" ] ~doc:"Source horizon in slots (stream mode); the run then drains.")
  in
  let max_demand =
    Arg.(value & opt int 3 & info [ "max-demand" ] ~doc:"Demand bound (demands workload).")
  in
  let queue_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-cap" ]
          ~doc:"Bound the pending queue; arrivals wait in the buffer above this.")
  in
  let buffer_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "buffer-cap" ] ~doc:"Bound the arrival buffer; the source stalls above this.")
  in
  let max_slots =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-slots" ] ~doc:"Hard stop after this many scheduler slots.")
  in
  let idle_limit =
    Arg.(
      value & opt int 10_000
      & info [ "idle-limit" ]
          ~doc:"Give up after this many consecutive fruitless drain slots.")
  in
  let status_every =
    Arg.(
      value & opt int 10_000
      & info [ "status-every" ]
          ~doc:"Print a JSON status snapshot to stderr every N slots (0 = never).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the final outcome as JSON on stdout.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduler as a long-lived slot-clocked service over a trace or a generated \
          arrival stream.")
    Term.(
      const serve $ inst $ core $ seed_term $ workload $ m $ rate $ slots $ max_demand
      $ queue_cap $ buffer_cap $ max_slots $ idle_limit $ status_every $ json $ trace_term
      $ metrics_term)

(* ----- exact ----- *)

let exact path =
  let inst = load_instance path in
  if Instance.n inst > 12 then
    Printf.eprintf "warning: exact search is exponential; %d flows may take very long\n"
      (Instance.n inst);
  let total, s = Exact.min_total_response inst in
  Printf.printf "optimal total response: %d (avg %.3f)\n" total
    (float_of_int total /. float_of_int (max 1 (Instance.n inst)));
  Printf.printf "  witness makespan: %d\n" (Schedule.makespan s);
  match Exact.min_max_response inst with
  | Some (rho, _) -> Printf.printf "optimal max response:   %d\n" rho
  | None -> Printf.printf "optimal max response:   none within horizon\n"

let exact_cmd =
  Cmd.v
    (Cmd.info "exact" ~doc:"Solve a tiny instance exactly by branch and bound.")
    Term.(const exact $ instance_arg)

(* ----- figures ----- *)

let figures m tries trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let rows =
    try
      Experiment.fig6_grid ~m ~tries ~seed:2020
        ~congestion:[ 1. /. 3.; 2. /. 3.; 1.; 2.; 4. ]
        ~rounds:[ 6; 8; 10 ] ()
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let rows =
    Experiment.run_grid ~policies:Flowsched_online.Heuristics.all_paper_heuristics
      ~progress:(fun msg -> Printf.eprintf "%s\n%!" msg)
      rows
  in
  print_endline "Figure 6 — average response time:";
  print_string (Report.fig6_table rows);
  print_newline ();
  print_endline "Figure 7 — maximum response time:";
  print_string (Report.fig7_table rows)

let figures_cmd =
  let m = Arg.(value & opt int 6 & info [ "m" ] ~doc:"Ports per side.") in
  let tries = Arg.(value & opt int 2 & info [ "tries" ] ~doc:"Trials per cell.") in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's Figure 6/7 tables (scaled).")
    Term.(const figures $ m $ tries $ trace_term $ metrics_term)

(* ----- the grid commands: sweep, merge, matrix ----- *)

(* The grid flags.  [sweep] and [merge] must agree on the grid cell for
   cell, so both read [sweep_grid_term]; [matrix] reads the same flags with
   its own defaults, plus [--modes]. *)
type grid = {
  kinds : string list;
  modes : string list;
  m : int;
  rates : float list;
  rounds_list : int list;
  max_demand : int;
  seeds : int list;
  policy_names : string list;
  with_lp : bool;
}

let grid_term ~kinds ~modes ~rates ~rounds_list ~max_demand ~policy_names =
  let grid kinds modes m rates rounds_list max_demand seeds policy_names with_lp =
    { kinds; modes; m; rates; rounds_list; max_demand; seeds; policy_names; with_lp }
  in
  Term.(
    const grid $ kinds $ modes $ ports_term $ rates $ rounds_list $ max_demand $ seeds_term
    $ policy_names $ lp_term)

let kinds_term default doc =
  Arg.(value & opt (list string) default & info [ "kinds" ] ~docv:"KINDS" ~doc)

let rates_term default =
  Arg.(
    value & opt (list float) default
    & info [ "rates" ] ~docv:"RATES" ~doc:"Comma-separated arrival rates (the paper's M).")

let rounds_term default =
  Arg.(
    value & opt (list int) default
    & info [ "rounds" ] ~docv:"ROUNDS" ~doc:"Comma-separated generation lengths (T).")

let policies_term default doc =
  Arg.(value & opt (list string) default & info [ "policies" ] ~docv:"POLICIES" ~doc)

let sweep_grid_term =
  grid_term
    ~kinds:
      (kinds_term [ "poisson" ]
         ("Comma-separated workload kinds: " ^ kind_names
        ^ ", with optional :parameters (e.g. skewed:1.2, pareto:1.5).  Artifacts record \
           each kind string as given."))
    ~modes:(Term.const [ "flows" ]) ~rates:(rates_term [ 2.0; 4.0 ])
    ~rounds_list:(rounds_term [ 6; 8 ])
    ~max_demand:
      Arg.(value & opt int 3 & info [ "max-demand" ] ~doc:"Demand bound (poisson-demands).")
    ~policy_names:
      (policies_term [ "maxcard"; "minrtime"; "maxweight" ]
         "Comma-separated policies (maxcard|minrtime|maxweight|fifo|random).")

(* Every grid command builds its cells here.  The generators range-check
   their own parameters, so each distinct (kind, m, rate, rounds,
   max_demand) of the grid is built once, in the parent: a rejected
   parameter then fails with the generator's message before any worker
   forks.  No seed is rejected, so one stands in for all. *)
let grid_or_exit g =
  let modes = List.map (parse_or_exit Flowsched_sim.Matrix.mode_of_string) g.modes in
  let cells =
    parse_or_exit Fun.id
      (Experiment.grid ~kinds:g.kinds ~modes ~m:g.m ~rates:g.rates ~rounds:g.rounds_list
         ~max_demand:g.max_demand ~seeds:g.seeds ~lp:g.with_lp)
  in
  List.map (fun (c : Experiment.cell) -> { c.Experiment.spec with Scenario.seed = 0 }) cells
  |> List.sort_uniq compare
  |> List.iter (fun spec ->
         match Scenario.instance spec with
         | _ -> ()
         | exception Invalid_argument msg ->
             Printf.eprintf "error: %s\n" msg;
             exit 1);
  if cells = [] then begin
    Printf.eprintf "error: empty grid (check --kinds, --rates, --rounds and --seeds)\n";
    exit 1
  end;
  cells

(* Run a grid command's cells, through the [--checkpoint] file when one is
   given, and turn its two early stops into exit codes: SIGINT/SIGTERM (the
   pool drained; exit 130) and a cell that spent its retry budget
   ([Failure] from [Experiment.run]; exit 1).  [exit] skips [with_obs]'s
   finalizer, so both flush the trace and the registry first: a partial
   trace is exactly what a post-mortem wants. *)
let run_grid_or_exit ~name ~trace ~metrics ~policies ~jobs ?timeout ?retries ?faults
    ~checkpoint ~resume cells =
  Printf.eprintf "%s: %d cells x %d policies, %d workers\n%!" name (List.length cells)
    (List.length policies) jobs;
  let progress msg = Printf.eprintf "  %s\n%!" msg in
  let run () =
    match checkpoint with
    | None -> Experiment.run ~policies ~progress ~jobs ?timeout ?retries ?faults cells
    | Some path ->
        let ckpt = Checkpoint.open_ ~path ~resume in
        if resume then
          Printf.eprintf "  resuming: %d of %d cells already checkpointed\n%!"
            (Checkpoint.loaded ckpt) (List.length cells);
        Fun.protect
          ~finally:(fun () -> Checkpoint.close ckpt)
          (fun () -> Checkpoint.run ~policies ~progress ~jobs ?timeout ?retries ?faults ckpt cells)
  in
  try Flowsched_obs.Trace.with_span (name ^ ".run") run with
  | Flowsched_exec.Pool.Interrupted ->
      Printf.eprintf "interrupted: pool drained and workers reaped\n";
      (match checkpoint with
      | Some path ->
          Printf.eprintf "  completed cells are saved; rerun with --checkpoint %s --resume\n"
            path
      | None -> Printf.eprintf "  rerun with --checkpoint FILE to make progress durable\n");
      finish_obs ~trace ~metrics ();
      exit 130
  | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      finish_obs ~trace ~metrics ();
      exit 1

let write_artifact out json summary =
  let data = Flowsched_util.Json.to_string json ^ "\n" in
  match out with
  | "-" -> print_string data
  | path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
      Printf.eprintf "wrote %s (%s)\n%!" path summary

let out_term default =
  Arg.(
    value & opt string default
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output JSON artifact path ('-' for stdout).")

(* One worker's share of a distributed sweep: claim the shard lease (taking
   over a crashed predecessor's if stale), register the manifest, and fill
   the shard checkpoint — heartbeating the lease after every durable append.
   No artifact is written here; [flowsched merge] folds the shard files back
   into one. *)
let sweep_shard_worker ~policies ~policy_names ~jobs ~timeout ~retries ~faults ~dir ~shards
    ~index ~lease_ttl cells =
  let module Shard = Flowsched_dist.Shard in
  let module Lease = Flowsched_dist.Lease in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let all_keys = List.map Checkpoint.key cells in
  let mine = Shard.plan ~shards ~index cells in
  let stem = Shard.file_stem ~shards ~index in
  match Lease.acquire ~dir ~name:stem ~ttl:lease_ttl () with
  | Error incumbent ->
      Printf.eprintf "error: shard %d/%d is held by live worker %s (heartbeat %.0fs ago)\n"
        index shards incumbent.Lease.owner
        (Unix.gettimeofday () -. incumbent.Lease.refreshed_at);
      exit 1
  | Ok { Lease.lease; taken_over_from } ->
      (match taken_over_from with
      | Some h ->
          Printf.eprintf "  takeover: claimed stale lease of %s, resuming their checkpoint\n%!"
            h.Lease.owner
      | None -> ());
      let manifest = Shard.make ~kind:"sweep" ~shards ~index ~policies:policy_names all_keys in
      ignore (Shard.write_manifest ~dir manifest);
      let path = Filename.concat dir (Shard.checkpoint_name ~shards ~index) in
      let ckpt = Checkpoint.open_ ~path ~resume:true in
      if Checkpoint.loaded ckpt > 0 then
        Printf.eprintf "  resuming: %d of %d shard cells already checkpointed\n%!"
          (Checkpoint.loaded ckpt) (List.length mine);
      Printf.eprintf "shard %d/%d: %d of %d cells, %d workers\n%!" index shards
        (List.length mine) (List.length cells) jobs;
      let progress msg = Printf.eprintf "  %s\n%!" msg in
      let on_append _key = Lease.refresh lease in
      (try
         Fun.protect
           ~finally:(fun () -> Checkpoint.close ckpt)
           (fun () ->
             ignore
               (Checkpoint.run ~policies ~progress ~jobs ?timeout ?retries ?faults ~on_append
                  ckpt mine))
       with
      | Lease.Lost msg ->
          (* Another worker judged us dead and took the shard; stop writing. *)
          Printf.eprintf "error: %s — shard taken over, aborting\n" msg;
          exit 1
      | Flowsched_exec.Pool.Interrupted ->
          Printf.eprintf "interrupted: pool drained and workers reaped\n";
          Printf.eprintf "  completed cells are saved; rerun the same command to resume\n";
          exit 130
      | Failure msg ->
          (* The lease stays behind, so a takeover worker can finish the
             shard from its checkpoint prefix. *)
          Printf.eprintf "error: %s\n" msg;
          exit 1);
      (* Only a cleanly finished shard releases its lease: a crash leaves the
         lease in place, which is exactly what the next claimant detects. *)
      Lease.release lease;
      Printf.eprintf "shard %d/%d complete: %d cells in %s\n%!" index shards
        (List.length mine) path

let sweep grid jobs timeout retries chaos shard checkpoint_dir lease_ttl checkpoint resume out
    trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let policy_names = grid.policy_names in
  let policies = List.map (fun name -> policy_of_name name 1) policy_names in
  if resume && checkpoint = None then begin
    Printf.eprintf "error: --resume requires --checkpoint FILE\n";
    exit 1
  end;
  (match (shard, checkpoint_dir) with
  | Some _, None ->
      Printf.eprintf "error: --shard requires --checkpoint-dir DIR\n";
      exit 1
  | None, Some _ ->
      Printf.eprintf "error: --checkpoint-dir requires --shard I/N\n";
      exit 1
  | _ -> ());
  if shard <> None && checkpoint <> None then begin
    Printf.eprintf
      "error: --shard derives its own checkpoint from --checkpoint-dir; drop --checkpoint\n";
    exit 1
  end;
  let faults = Option.map (fun seed -> Flowsched_exec.Faults.chaos ~seed) chaos in
  (* Chaos without a timeout would let an injected hang wedge the run. *)
  let timeout =
    match (timeout, faults) with None, Some _ -> Some 10. | t, _ -> t
  in
  let cells = grid_or_exit grid in
  let jobs = match jobs with Some j -> j | None -> Flowsched_exec.Pool.default_jobs () in
  match (shard, checkpoint_dir) with
  | Some (index, shards), Some dir ->
      sweep_shard_worker ~policies ~policy_names ~jobs ~timeout ~retries ~faults ~dir ~shards
        ~index ~lease_ttl cells
  | _ ->
      let t0 = Unix.gettimeofday () in
      let results =
        run_grid_or_exit ~name:"sweep" ~trace ~metrics ~policies ~jobs ?timeout ?retries ?faults
          ~checkpoint ~resume cells
      in
      (* The metrics block is opt-in: its timing gauges are nondeterministic
         and would break the byte-identical-across---jobs artifact
         guarantee. *)
      let metrics_block =
        if metrics then Some (Flowsched_obs.Metrics.to_json (Flowsched_obs.Metrics.snapshot ()))
        else None
      in
      write_artifact out
        (Report.sweep_json ~jobs ?metrics:metrics_block results)
        (Printf.sprintf "%d cells, %.1fs" (List.length cells) (Unix.gettimeofday () -. t0))

let sweep_cmd =
  let chaos =
    Arg.(
      value & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Inject the stock deterministic fault plan (crashes, hangs, transient raises, \
             corrupt frames) seeded by SEED. Testing aid: with enough --retries the \
             artifact is identical to a fault-free run.")
  in
  let shard =
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Run as distributed shard worker I of N (zero-based): compute only the cells \
             this shard owns, guarded by a lease in --checkpoint-dir, and write them to the \
             shard's CRC-sealed checkpoint instead of an artifact. Combine the shards with \
             $(b,flowsched merge).")
  in
  let checkpoint_dir =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Shared directory for distributed shard state: per-shard manifests, checkpoints \
             and lease files (requires --shard).")
  in
  let lease_ttl =
    Arg.(
      value & opt float 60.
      & info [ "lease-ttl" ] ~docv:"SECS"
          ~doc:
            "Staleness horizon for shard leases: a shard whose lease heartbeat is older \
             than SECS (or whose same-host pid is dead) can be taken over.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a (workload x policy x seed) grid through the parallel experiment pool and \
          write a machine-readable JSON artifact.")
    Term.(
      const sweep $ sweep_grid_term $ jobs_term $ timeout_term $ retries_term
      $ chaos $ shard $ checkpoint_dir $ lease_ttl $ checkpoint_term $ resume_term
      $ out_term "sweep.json" $ trace_term $ metrics_term)

(* ----- merge ----- *)

let merge grid dir allow_partial out =
  let cells = grid_or_exit grid in
  match Flowsched_dist.Merge.sweep ~dir ~policies:grid.policy_names cells with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Ok (results, report) ->
      let module M = Flowsched_dist.Merge in
      Printf.eprintf
        "merge: %d/%d cells from %d of %d shards (%d duplicate(s), all byte-equal)\n%!"
        report.M.found_cells report.M.expected_cells
        (List.length report.M.manifests_present)
        report.M.shards report.M.duplicate_cells;
      if report.M.missing <> [] then begin
        List.iter
          (fun (key, owner) ->
            Printf.eprintf "  missing: %s (owned by shard %d)\n" key owner)
          report.M.missing;
        if not allow_partial then begin
          Printf.eprintf
            "error: %d cell(s) missing — finish (or take over) the owning shards, or pass \
             --allow-partial\n"
            (List.length report.M.missing);
          exit 1
        end
      end;
      (* jobs:1 — the merged artifact must be byte-identical to what one
         uninterrupted single-box [--jobs 1] run would have written. *)
      write_artifact out (Report.sweep_json ~jobs:1 results)
        (Printf.sprintf "%d cells" report.M.found_cells)

let merge_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir"; "checkpoint-dir" ] ~docv:"DIR"
          ~doc:"The shard checkpoint directory the workers wrote into.")
  in
  let allow_partial =
    Arg.(
      value & flag
      & info [ "allow-partial" ]
          ~doc:
            "Write the artifact even when cells are missing (default: missing cells are an \
             error so a half-finished distributed run cannot masquerade as a complete one).")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge the per-shard checkpoints of a distributed sweep (run with --shard I/N \
          --checkpoint-dir DIR) into the single artifact an uninterrupted --jobs 1 run \
          would have written. Validates every shard manifest against this grid's \
          fingerprint, requires duplicated cells to agree byte-for-byte, and refuses \
          partial grids unless --allow-partial. Give it the sharded sweep's grid flags.")
    Term.(const merge $ sweep_grid_term $ dir $ allow_partial $ out_term "sweep.json")

(* ----- matrix ----- *)

let matrix grid jobs timeout retries checkpoint resume out trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let policies = List.map (fun name -> policy_of_name name 1) grid.policy_names in
  if resume && checkpoint = None then begin
    Printf.eprintf "error: --resume requires --checkpoint FILE\n";
    exit 1
  end;
  let cells = grid_or_exit grid in
  let jobs = match jobs with Some j -> j | None -> Flowsched_exec.Pool.default_jobs () in
  let t0 = Unix.gettimeofday () in
  let results =
    run_grid_or_exit ~name:"matrix" ~trace ~metrics ~policies ~jobs ?timeout ?retries
      ~checkpoint ~resume cells
  in
  (* No jobs/timing metadata in the artifact: the bytes are the grid's
     deterministic content alone, so --jobs 1 and --jobs N produce identical
     files (the scenarios-smoke target diffs them). *)
  write_artifact out (Report.matrix_json results)
    (Printf.sprintf "%d cells, %.1fs" (List.length cells) (Unix.gettimeofday () -. t0))

let matrix_cmd =
  let grid =
    grid_term
      ~kinds:
        (kinds_term
           [ "poisson"; "pareto"; "lognormal"; "bursty"; "diurnal"; "flash-crowd"; "bimodal" ]
           ("Comma-separated scenario kinds, any of " ^ kind_names
          ^ ", with optional :parameters (e.g. pareto:1.2)."))
      ~modes:
        Arg.(
          value
          & opt (list string) [ "flows"; "endpoint"; "coflow" ]
          & info [ "modes" ] ~docv:"MODES"
              ~doc:
                "Comma-separated problem modes: flows (the paper's problem), \
                 endpoint[:nodes[:cap]] (per-node capacities), coflow[:groups[:max_weight]] \
                 (weighted coflow completion).")
      ~rates:(rates_term [ 3.0 ]) ~rounds_list:(rounds_term [ 8 ])
      ~max_demand:
        Arg.(
          value & opt int 3 & info [ "max-demand" ] ~doc:"Demand bound (demand-carrying kinds).")
      ~policy_names:
        (policies_term
           [ "maxcard"; "minrtime"; "maxweight"; "fifo" ]
           "Comma-separated policies for the flows/endpoint modes \
            (maxcard|minrtime|maxweight|fifo|random); coflow mode runs its own \
            wsebf/sebf/flow-fifo set.")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run a policy x workload x mode grid over the scenario zoo (including the \
          endpoint-capacity and weighted-coflow problem variants) and write a \
          machine-readable JSON artifact, byte-identical across --jobs.")
    Term.(
      const matrix $ grid $ jobs_term $ timeout_term $ retries_term $ checkpoint_term
      $ resume_term $ out_term "matrix.json" $ trace_term $ metrics_term)

(* ----- check-trace ----- *)

let check_trace path =
  let module J = Flowsched_util.Json in
  let data =
    try
      if path = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  match J.parse data with
  | Error msg ->
      Printf.eprintf "error: %s is not valid JSON: %s\n" path msg;
      exit 1
  | Ok v -> (
      match J.member "traceEvents" v with
      | Some (J.Arr (_ :: _ as events)) ->
          Printf.printf "%s: valid trace, %d events\n" path (List.length events)
      | Some (J.Arr []) ->
          Printf.eprintf "error: %s has an empty traceEvents array\n" path;
          exit 1
      | _ ->
          Printf.eprintf "error: %s has no traceEvents array\n" path;
          exit 1)

let check_trace_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by --trace ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:
         "Validate that a file produced by --trace parses as Chrome trace-event JSON with a \
          non-empty traceEvents array.")
    Term.(const check_trace $ path)

(* ----- rtt (Theorem 2 reduction demo) ----- *)

let rtt teachers classes seed =
  let g = Flowsched_util.Prng.create seed in
  let tsets =
    Array.init teachers (fun _ ->
        let size = 2 + Flowsched_util.Prng.int g 2 in
        let size = min size classes in
        Flowsched_util.Sampling.sample_without_replacement g size 3
        |> List.map (fun h -> h + 1))
  in
  let assigns =
    Array.init teachers (fun i ->
        Flowsched_util.Sampling.sample_without_replacement g (List.length tsets.(i)) classes)
  in
  let instance = { Hardness.teachers; classes; tsets; assigns } in
  (match Hardness.validate instance with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: generated RTT invalid (%s); try another seed\n" msg;
      exit 1);
  Printf.printf "Restricted Timetable instance (seed %d):\n" seed;
  Array.iteri
    (fun i ts ->
      Printf.printf "  teacher %d: hours {%s}, classes {%s}\n" i
        (String.concat "," (List.map string_of_int ts))
        (String.concat "," (List.map string_of_int assigns.(i))))
    tsets;
  let sat = Hardness.satisfiable instance in
  Printf.printf "satisfiable: %b\n" sat;
  let red = Hardness.reduce instance in
  Printf.printf "reduced FS-MRT instance: %d flows on a %d-in/%d-out switch, target rho = %d\n"
    (Instance.n red.Hardness.instance) red.Hardness.instance.Instance.m
    red.Hardness.instance.Instance.m' red.Hardness.rho;
  (match Exact.feasible_with_rho red.Hardness.instance ~rho:3 with
  | Some s ->
      Printf.printf "exact solver: schedulable with max response 3\n";
      (match Hardness.timetable_of_schedule instance red s with
      | Ok f ->
          Printf.printf "extracted timetable valid: %b\n" (Hardness.check_timetable instance f)
      | Error e -> Printf.printf "extraction failed: %s\n" e)
  | None ->
      Printf.printf "exact solver: NOT schedulable with max response 3 (needs 4)\n");
  Printf.printf "equivalence holds: %b\n"
    (sat = (Exact.feasible_with_rho red.Hardness.instance ~rho:3 <> None))

let rtt_cmd =
  let teachers = Arg.(value & opt int 3 & info [ "teachers" ] ~doc:"Number of teachers.") in
  let classes = Arg.(value & opt int 4 & info [ "classes" ] ~doc:"Number of classes.") in
  Cmd.v
    (Cmd.info "rtt"
       ~doc:"Demonstrate the Theorem 2 hardness reduction on a random RTT instance.")
    Term.(const rtt $ teachers $ classes $ seed_term)

(* ----- open-problem ----- *)

let open_problem m rounds trials seed =
  let s = Open_problem.study ~seed ~m ~rounds ~trials in
  Printf.printf "Section 6 open problem: slack-1 request sequences on a %dx%d switch\n" m m;
  Printf.printf "  trials:              %d (%d flows total)\n" s.Open_problem.trials
    s.Open_problem.flows_total;
  Printf.printf "  worst slack:         %d\n" s.Open_problem.worst_slack;
  Printf.printf "  worst LP rho:        %d\n" s.Open_problem.worst_fractional_rho;
  Printf.printf "  worst MinRTime rho:  %d\n" s.Open_problem.worst_heuristic;
  (match s.Open_problem.worst_exact with
  | Some k -> Printf.printf "  worst exact rho:     %d\n" k
  | None -> Printf.printf "  worst exact rho:     (instances too large)\n")

let open_problem_cmd =
  let m = Arg.(value & opt int 5 & info [ "ports" ] ~doc:"Ports per side.") in
  let rounds = Arg.(value & opt int 8 & info [ "rounds" ] ~doc:"Generation rounds.") in
  let trials = Arg.(value & opt int 10 & info [ "trials" ] ~doc:"Generated instances.") in
  Cmd.v
    (Cmd.info "open-problem"
       ~doc:"Empirically probe the paper's Section 6 constant-response conjecture.")
    Term.(const open_problem $ m $ rounds $ trials $ seed_term)

(* ----- main ----- *)

let () =
  let doc = "scheduling flows on a switch to optimize response times" in
  let info = Cmd.info "flowsched" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd;
        lp_bound_cmd;
        solve_art_cmd;
        solve_mrt_cmd;
        simulate_cmd;
        serve_cmd;
        exact_cmd;
        figures_cmd;
        sweep_cmd;
        merge_cmd;
        matrix_cmd;
        check_trace_cmd;
        rtt_cmd;
        open_problem_cmd;
      ]
  in
  exit (Cmd.eval group)
