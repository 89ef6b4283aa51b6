(* Paper-reproduction harness: regenerates every evaluation artifact of the
   paper (Figures 6 and 7) and validates the theorem-shaped claims on random
   workloads (Theorem 1, Theorem 3, Lemmas 5.1-5.3 — the "ablations" and
   "adversarial" blocks).  Timing lives in perfbench/; the one timing probe
   kept here is lp-large, the only measurement of LPs at n = 240 and 600.

   Usage:
     dune exec bench/main.exe                 # everything, scaled profile
     dune exec bench/main.exe -- figures      # only Figures 6/7
     dune exec bench/main.exe -- figures --paper  # larger grid, with LPs
     dune exec bench/main.exe -- figures --full   # the paper's 150x150 switch,
                                                  # heuristics only
     dune exec bench/main.exe -- figures --json   # also write BENCH_figures.json
     dune exec bench/main.exe -- ablations    # Theorem 1 / Theorem 3 tables
     dune exec bench/main.exe -- adversarial  # Figure 4 + AMRT experiments
     dune exec bench/main.exe -- lp-large N   # one ART round-LP of N flows,
                                              # cold vs warm re-solve; exits 1
                                              # if they disagree

   figures, ablations and adversarial accept `--jobs N` (N a positive count
   or `auto` for the detected core count; default auto) and fan their
   mutually independent cells across a Flowsched_exec.Pool of forked
   workers.  Results are merged in job order, so every table is
   byte-identical to a sequential `--jobs 1` run.  Any other argument exits
   2 with the usage line. *)

open Flowsched_switch
open Flowsched_core
open Flowsched_online
open Flowsched_sim
open Flowsched_util
module Pool = Flowsched_exec.Pool

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let elapsed t0 = Unix.gettimeofday () -. t0

(* Fan the independent units of a table across the pool; each worker
   returns fully rendered row strings, merged back in input order. *)
let pool_rows ~jobs f items =
  Pool.map ~jobs ~f (Array.of_list items)
  |> Array.to_list
  |> List.map (function
       | Pool.Done r -> r
       | Pool.Failed { attempts; reason } ->
           failwith (Printf.sprintf "bench job failed after %d attempts: %s" attempts reason))

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7                                                     *)
(* ------------------------------------------------------------------ *)

let figures ~profile ~jobs ?(json = false) () =
  let t0 = Unix.gettimeofday () in
  (* The paper: 150x150 switch, M in {50,100,150,300,600} (congestion M/150
     in {1/3,2/3,1,2,4}), T in {10..20} with LP and up to 100 without, 10
     tries.  Scaled profiles keep the same congestion levels on a smaller
     switch (see DESIGN.md for why ratios and orderings are preserved);
     `--full` runs the paper's actual 150x150 switch, heuristics only (the
     LP at that scale is the paper's own 3-hours-per-run bottleneck). *)
  let m, tries, rounds, lp_rounds_limit =
    match profile with
    | `Default -> (6, 2, [ 6; 8; 10 ], 10)
    | `Paper -> (8, 3, [ 6; 8; 10; 12 ], 10)
    | `Full -> (150, 2, [ 10; 20 ], 0)
  in
  let congestion = [ 1. /. 3.; 2. /. 3.; 1.; 2.; 4. ] in
  let grid =
    Experiment.fig6_grid ~m ~tries ~seed:2020 ~lp_rounds_limit ~congestion ~rounds ()
  in
  section
    (Printf.sprintf
       "Figures 6 and 7 — online heuristics vs LP lower bounds (%dx%d switch, %d tries)" m m
       tries);
  (match profile with
  | `Full ->
      Printf.printf
        "Paper-scale switch (150x150, M in {50,100,150,300,600}); heuristics only —\n\
         the LP bounds at this scale are the paper's own multi-hour bottleneck.\n%!"
  | `Default | `Paper ->
      Printf.printf
        "Scaled reproduction of the paper's 150x150 grid: congestion M/m matches the\n\
         paper's M/150 levels {1/3, 2/3, 1, 2, 4}; LP bounds on cells with T <= %d.\n%!"
        lp_rounds_limit);
  Printf.printf "workers: %d\n%!" jobs;
  let results =
    Experiment.run_grid ~policies:Heuristics.all_paper_heuristics
      ~progress:(fun msg -> Printf.printf "  [%6.1fs] %s\n%!" (elapsed t0) msg)
      ~jobs grid
  in
  section "Figure 6 — average response time (vs LP (1)-(4) lower bound)";
  print_string (Report.fig6_table results);
  section "Figure 7 — maximum response time (vs binary search over LP (19)-(21))";
  print_string (Report.fig7_table results);
  if json then begin
    let path = "BENCH_figures.json" in
    let oc = open_out path in
    output_string oc (Json.to_string (Report.figures_json ~jobs results));
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n%!" path
  end;
  Printf.printf "\nfigures block finished in %.1fs\n%!" (elapsed t0)

(* ------------------------------------------------------------------ *)
(* Theorem ablations                                                   *)
(* ------------------------------------------------------------------ *)

let theorem1_table ~jobs () =
  section "Theorem 1 ablation — FS-ART approximation vs capacity blow-up c";
  Printf.printf
    "Offline pipeline (LP (5)-(8) + iterative rounding + BvN re-matching) on\n\
     Poisson instances; schedule must be valid under (1+c) capacities and total\n\
     response within (1 + O(log n)/c) of the LP bound.\n\n%!";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("c", Table.Right);
        ("LP bound", Table.Right);
        ("FIFO", Table.Right);
        ("alg total", Table.Right);
        ("alg/LP", Table.Right);
        ("iters", Table.Right);
        ("backlog", Table.Right);
        ("h", Table.Right);
        ("spill", Table.Right);
        ("valid", Table.Right);
      ]
  in
  let rows_for (n, seed) =
    let inst = Workload.uniform_total ~m:4 ~n ~max_release:(n / 4) ~seed in
    let fifo = Baselines.fifo inst in
    let lp_total = ref nan in
    let c_rows =
      List.map
        (fun c ->
          let res = Art_scheduler.solve ~c inst in
          let d = res.Art_scheduler.diagnostics in
          lp_total := res.Art_scheduler.lp_total;
          [
            string_of_int (Instance.n inst);
            string_of_int c;
            Table.cell_float res.Art_scheduler.lp_total;
            string_of_int (Schedule.total_response inst fifo);
            string_of_int res.Art_scheduler.total_response;
            Table.cell_ratio (float_of_int res.Art_scheduler.total_response)
              res.Art_scheduler.lp_total;
            string_of_int d.Art_scheduler.rounding.Iterative_rounding.iterations;
            string_of_int d.Art_scheduler.rounding.Iterative_rounding.backlog;
            string_of_int d.Art_scheduler.h;
            string_of_int d.Art_scheduler.spill_rounds;
            string_of_bool
              (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
          ])
        [ 1; 2; 4 ]
    in
    (* ablation: the same conversion without the LP stage *)
    let greedy = Art_scheduler.solve_greedy ~c:1 inst in
    let gd = greedy.Art_scheduler.diagnostics in
    let greedy_row =
      [
        string_of_int (Instance.n inst);
        "1*";
        "-";
        string_of_int (Schedule.total_response inst fifo);
        string_of_int greedy.Art_scheduler.total_response;
        Table.cell_ratio (float_of_int greedy.Art_scheduler.total_response) !lp_total;
        "-";
        string_of_int gd.Art_scheduler.rounding.Iterative_rounding.backlog;
        string_of_int gd.Art_scheduler.h;
        string_of_int gd.Art_scheduler.spill_rounds;
        string_of_bool
          (Schedule.is_valid greedy.Art_scheduler.augmented greedy.Art_scheduler.schedule);
      ]
    in
    c_rows @ [ greedy_row ]
  in
  pool_rows ~jobs rows_for [ (16, 11); (40, 12); (80, 13) ]
  |> List.iter (fun rows ->
         List.iter (Table.add_row t) rows;
         Table.add_separator t);
  Table.print t;
  Printf.printf "\n(rows marked 1*: greedy pseudo-schedule ablation, no LP stage)\n%!"

let theorem3_table ~jobs () =
  section "Theorem 3 ablation — FS-MRT optimal rho under +(2 dmax - 1) capacity";
  Printf.printf
    "Binary search for the minimum fractional rho, then Lemma 4.3-style rounding;\n\
     overflow must stay within 2 dmax - 1 and the response within rho.\n\n%!";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("dmax", Table.Right);
        ("rho* (LP)", Table.Right);
        ("rho (alg)", Table.Right);
        ("FIFO rho", Table.Right);
        ("overflow", Table.Right);
        ("bound", Table.Right);
        ("LP solves", Table.Right);
        ("fallbacks", Table.Right);
        ("valid", Table.Right);
      ]
  in
  let row_for (n, max_demand, seed) =
    let inst =
      if max_demand = 1 then Workload.poisson ~m:4 ~rate:2.0 ~rounds:(n / 2) ~seed
      else Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:(n / 2) ~max_demand ~seed
    in
    if Instance.n inst = 0 then None
    else begin
      let sol = Mrt_scheduler.solve inst in
      let fifo = Baselines.fifo inst in
      Some
        [
          string_of_int (Instance.n inst);
          string_of_int (Instance.dmax inst);
          string_of_int sol.Mrt_scheduler.fractional_rho;
          string_of_int sol.Mrt_scheduler.rho;
          string_of_int (Schedule.max_response inst fifo);
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.overflow;
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.bound;
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.lp_solves;
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.fallback_drops;
          string_of_bool
            (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule);
        ]
    end
  in
  pool_rows ~jobs row_for [ (20, 1, 21); (40, 1, 22); (20, 2, 23); (40, 3, 24); (60, 4, 25) ]
  |> List.iter (Option.iter (Table.add_row t));
  Table.print t

let factor_augmentation_table ~jobs () =
  section "Lemma 3.3 corollary — factor-augmented schedules (general demands)";
  Printf.printf
    "The pseudo-schedule emitted directly, with every capacity scaled by the\n\
     smallest uniform factor that absorbs the backlog (paper: 1 + O(log n)).\n\n%!";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("n", Table.Right);
        ("dmax", Table.Right);
        ("factor", Table.Right);
        ("LP bound", Table.Right);
        ("total resp", Table.Right);
        ("valid", Table.Right);
      ]
  in
  let row_for (label, inst) =
    if Instance.n inst = 0 then None
    else begin
      let res = Art_scheduler.solve_factor_augmented inst in
      Some
        [
          label;
          string_of_int (Instance.n inst);
          string_of_int (Instance.dmax inst);
          string_of_int res.Art_scheduler.factor;
          Table.cell_float res.Art_scheduler.lp_total;
          string_of_int res.Art_scheduler.total_response;
          string_of_bool
            (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
        ]
    end
  in
  pool_rows ~jobs row_for
    [
      ("uniform unit, n=40", Workload.uniform_total ~m:4 ~n:40 ~max_release:10 ~seed:51);
      ("uniform unit, n=80", Workload.uniform_total ~m:4 ~n:80 ~max_release:20 ~seed:52);
      ("poisson demands<=3", Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:10 ~max_demand:3 ~seed:53);
      ("poisson demands<=5", Workload.poisson_with_demands ~m:4 ~rate:3.0 ~rounds:10 ~max_demand:5 ~seed:54);
    ]
  |> List.iter (Option.iter (Table.add_row t));
  Table.print t

let open_problem_block ~jobs () =
  section "Open problem (Section 6) — response time of slack-1 request sequences";
  Printf.printf
    "Instances whose per-port release surplus over any interval is at most +1\n\
     (the paper asks whether constant response is achievable without capacity\n\
     augmentation).  Worst values over the generated trials:\n\n%!";
  let t =
    Table.create
      [
        ("m", Table.Right);
        ("rounds", Table.Right);
        ("trials", Table.Right);
        ("flows", Table.Right);
        ("slack", Table.Right);
        ("LP rho", Table.Right);
        ("MinRTime rho", Table.Right);
        ("exact rho", Table.Right);
      ]
  in
  let row_for (m, rounds, trials, seed) =
    let s = Open_problem.study ~seed ~m ~rounds ~trials in
    [
      string_of_int m;
      string_of_int rounds;
      string_of_int s.Open_problem.trials;
      string_of_int s.Open_problem.flows_total;
      string_of_int s.Open_problem.worst_slack;
      string_of_int s.Open_problem.worst_fractional_rho;
      string_of_int s.Open_problem.worst_heuristic;
      (match s.Open_problem.worst_exact with Some k -> string_of_int k | None -> "-");
    ]
  in
  pool_rows ~jobs row_for [ (3, 4, 20, 61); (4, 6, 20, 62); (6, 8, 15, 63); (8, 10, 10, 64) ]
  |> List.iter (Table.add_row t);
  Table.print t;
  Printf.printf
    "\nEmpirical reading: the worst response stays a small constant as the size\n\
     grows — evidence FOR the paper's constant-response conjecture.\n%!"

let skew_block ~jobs () =
  section "Beyond the paper — heuristics under skewed (Zipf/hotspot) traffic";
  Printf.printf
    "The paper's experiments use uniform port selection; its future-work section\n\
     asks about distributional inputs.  Same rate, three endpoint distributions:\n\n%!";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("flows", Table.Right);
        ("policy", Table.Left);
        ("avg resp", Table.Right);
        ("max resp", Table.Right);
      ]
  in
  let m = 6 in
  let rows_for (label, inst) =
    List.map
      (fun (p : Policy.t) ->
        let r = Engine.run_instance p inst in
        [
          label;
          string_of_int (Instance.n inst);
          p.Policy.name;
          Table.cell_float (Engine.average_response r);
          string_of_int (Engine.max_response r);
        ])
      Heuristics.all_paper_heuristics
  in
  pool_rows ~jobs rows_for
    [
      ("uniform", Workload.poisson ~m ~rate:4.0 ~rounds:10 ~seed:71);
      ("zipf(1.0)", Workload.skewed ~m ~rate:4.0 ~rounds:10 ~alpha:1.0 ~seed:71);
      ("hotspot(50%)", Workload.hotspot ~m ~rate:4.0 ~rounds:10 ~fraction:0.5 ~seed:71);
    ]
  |> List.iter (fun rows ->
         List.iter (Table.add_row t) rows;
         Table.add_separator t);
  Table.print t

let coflow_block ~jobs () =
  section "Beyond the paper — co-flow scheduling (SEBF vs group-blind FIFO)";
  Printf.printf
    "Co-flows are the paper's named future-work generalization: a job completes\n\
     when its last flow does.  SEBF orders co-flows by effective bottleneck.\n\n%!";
  let t =
    Table.create
      [
        ("flows", Table.Right);
        ("coflows", Table.Right);
        ("SEBF avg", Table.Right);
        ("FIFO avg", Table.Right);
        ("SEBF/FIFO", Table.Right);
        ("SEBF max", Table.Right);
        ("FIFO max", Table.Right);
      ]
  in
  let row_for (n, groups, seed) =
    let inst = Workload.uniform_total ~m:4 ~n ~max_release:(n / 6) ~seed in
    let cf = Coflow.random_grouping ~seed:(seed + 1) ~groups inst in
    let sebf = Coflow.sebf cf in
    let fifo = Coflow.flow_fifo cf in
    [
      string_of_int n;
      string_of_int groups;
      Table.cell_float (Coflow.average_response cf sebf);
      Table.cell_float (Coflow.average_response cf fifo);
      Table.cell_ratio (Coflow.average_response cf sebf) (Coflow.average_response cf fifo);
      string_of_int (Coflow.max_response cf sebf);
      string_of_int (Coflow.max_response cf fifo);
    ]
  in
  pool_rows ~jobs row_for [ (24, 4, 81); (48, 6, 82); (96, 8, 83); (96, 24, 84) ]
  |> List.iter (Table.add_row t);
  Table.print t

let ablations ~jobs () =
  theorem1_table ~jobs ();
  theorem3_table ~jobs ();
  factor_augmentation_table ~jobs ();
  open_problem_block ~jobs ();
  skew_block ~jobs ();
  coflow_block ~jobs ()

(* ------------------------------------------------------------------ *)
(* Adversarial / online-theory experiments                             *)
(* ------------------------------------------------------------------ *)

let fig4a_block ~jobs () =
  section "Lemma 5.1 / Figure 4(a) — online avg response is unboundedly worse";
  Printf.printf
    "Adaptive adversary: solid flows for T rounds, then dashed flows aimed at the\n\
     busier output.  The online/LP ratio grows with the number of dashed rounds M.\n\n%!";
  let t =
    Table.create
      [
        ("T", Table.Right);
        ("M", Table.Right);
        ("policy", Table.Left);
        ("online avg", Table.Right);
        ("LP avg", Table.Right);
        ("ratio", Table.Right);
      ]
  in
  let rows_for (tt, total) =
    List.map
      (fun (p : Policy.t) ->
        let arrivals ~round ~pending =
          if round < tt then [ (0, 0, 1); (0, 1, 1) ]
          else begin
            let count d =
              List.length (List.filter (fun (f : Flow.t) -> f.Flow.dst = d) pending)
            in
            [
              ( 1,
                Lower_bounds.fig4a_dashed_target ~pending_out0:(count 0)
                  ~pending_out1:(count 1),
                1 );
            ]
          end
        in
        let r = Engine.run_adaptive ~m:2 ~m':2 ~arrivals ~stop_arrivals_after:total p in
        let inst = Instance.create ~m:2 ~m':2 r.Engine.flows in
        let horizon = max (Art_lp.default_horizon inst) r.Engine.makespan in
        let bound = Art_lp.lower_bound ~horizon inst in
        [
          string_of_int tt;
          string_of_int total;
          p.Policy.name;
          Table.cell_float (Engine.average_response r);
          Table.cell_float bound.Art_lp.average;
          Table.cell_ratio (Engine.average_response r) bound.Art_lp.average;
        ])
      [ Heuristics.maxcard; Heuristics.maxweight; Heuristics.fifo ]
  in
  pool_rows ~jobs rows_for [ (4, 16); (6, 36); (8, 64) ]
  |> List.iter (fun rows ->
         List.iter (Table.add_row t) rows;
         Table.add_separator t);
  Table.print t

let fig4b_block ~jobs () =
  section "Lemma 5.2 / Figure 4(b) — online max response >= 3/2 x offline";
  Printf.printf "Offline optimum is %d; the adaptive adversary forces every policy to 3.\n\n%!"
    Lower_bounds.fig4b_optimum;
  let t =
    Table.create
      [ ("policy", Table.Left); ("online max", Table.Right); ("offline opt", Table.Right) ]
  in
  let adversary ~round ~pending =
    if round = 0 then [ (0, 1, 1); (0, 0, 1); (1, 2, 1); (1, 3, 1) ]
    else if round = 1 then
      Lower_bounds.fig4b_dashed
        ~remaining_solid_outputs:(List.map (fun (f : Flow.t) -> f.Flow.dst) pending)
    else []
  in
  let row_for (p : Policy.t) =
    let r = Engine.run_adaptive ~m:3 ~m':4 ~arrivals:adversary ~stop_arrivals_after:2 p in
    [
      p.Policy.name;
      string_of_int (Engine.max_response r);
      string_of_int Lower_bounds.fig4b_optimum;
    ]
  in
  pool_rows ~jobs row_for (Heuristics.all_paper_heuristics @ [ Heuristics.fifo ])
  |> List.iter (Table.add_row t);
  Table.print t

let amrt_block ~jobs () =
  section "Lemma 5.3 — AMRT online batching vs the fractional optimum";
  Printf.printf
    "AMRT runs with capacities 2(c_p + 2 dmax - 1); its max response should stay\n\
     within 2x its final guess, which converges near the offline optimum.\n\n%!";
  let t =
    Table.create
      [
        ("m", Table.Right);
        ("flows", Table.Right);
        ("rho* (LP)", Table.Right);
        ("AMRT max", Table.Right);
        ("final guess", Table.Right);
        ("max <= 2*guess", Table.Right);
      ]
  in
  let row_for (m, rate, rounds, seed) =
    let inst = Workload.poisson ~m ~rate ~rounds ~seed in
    if Instance.n inst = 0 then None
    else begin
      let cap_in, cap_out =
        Amrt.required_capacities ~cap_in:inst.Instance.cap_in
          ~cap_out:inst.Instance.cap_out ~dmax:1
      in
      let amrt =
        Amrt.make ~planning_cap_in:inst.Instance.cap_in ~planning_cap_out:inst.Instance.cap_out
      in
      let augmented = Instance.create ~cap_in ~cap_out ~m ~m':m inst.Instance.flows in
      let r = Engine.run_instance amrt augmented in
      let frac = Mrt_scheduler.min_fractional_rho inst in
      let guess = match Amrt.current_rho amrt with Some k -> k | None -> 0 in
      Some
        [
          string_of_int m;
          string_of_int (Instance.n inst);
          string_of_int frac;
          string_of_int (Engine.max_response r);
          string_of_int guess;
          string_of_bool (Engine.max_response r <= 2 * guess);
        ]
    end
  in
  pool_rows ~jobs row_for [ (4, 2.0, 8, 31); (6, 4.0, 10, 32); (6, 12.0, 8, 33) ]
  |> List.iter (Option.iter (Table.add_row t));
  Table.print t

let adversarial ~jobs () =
  fig4a_block ~jobs ();
  fig4b_block ~jobs ();
  amrt_block ~jobs ()

(* ------------------------------------------------------------------ *)
(* LP large-instance probe                                             *)
(* ------------------------------------------------------------------ *)

module Simplex = Flowsched_lp.Simplex

(* One ART round-LP of [n] uniform unit flows, solved cold and then
   re-solved warm from its own optimal basis.  At n = 240 (848 rows) and
   600 (1952 rows) these LPs are the sparse engine's target regime, so the
   summary line carries the sparsity counters (LU fill-in, eta nnz, bound
   flips) next to wall clock.  Then the same instance goes through
   [Art_lp.lower_bound], the path every caller runs: greedy max-card's crash
   start and the D(u) check.  The gates are exactness: the warm re-solve and
   the bound must both reproduce the cold objective to 1e-6.  Returns the
   two verdicts. *)
let lp_large n =
  let module M = Flowsched_obs.Metrics in
  let inst = Workload.uniform_total ~m:4 ~n ~max_release:8 ~seed:77 in
  let model = (Art_lp.build_round_lp inst).Art_lp.model in
  let before = M.snapshot () in
  let t0 = Unix.gettimeofday () in
  let cold = Simplex.solve_or_fail model in
  let cold_s = elapsed t0 in
  let c = M.diff (M.snapshot ()) before in
  let count name = M.counter_in c ("simplex." ^ name) in
  let t1 = Unix.gettimeofday () in
  let warm = Simplex.solve_or_fail ~warm:(Array.to_list cold.Simplex.basis) model in
  let warm_s = elapsed t1 in
  let agree = abs_float (cold.Simplex.objective -. warm.Simplex.objective) <= 1e-6 in
  let before_bound = M.snapshot () in
  let t2 = Unix.gettimeofday () in
  let bound = Art_lp.lower_bound inst in
  let bound_s = elapsed t2 in
  let bound_piv = M.counter_in (M.diff (M.snapshot ()) before_bound) "simplex.pivots" in
  let bound_agree = abs_float (cold.Simplex.objective -. bound.Art_lp.total) <= 1e-6 in
  let fill =
    if count "basis_nnz" > 0 then
      float_of_int (count "factor_nnz") /. float_of_int (count "basis_nnz")
    else 0.
  in
  Printf.printf
    "n=%d rows=%d cold_piv=%d warm_piv=%d refact=%d fill=%.2f eta_nnz=%d flips=%d \
     cold=%.3fs warm=%.3fs agree=%b bound_piv=%d bound=%.3fs bound_agree=%b\n%!"
    n (Flowsched_lp.Model.num_rows model) cold.Simplex.iterations warm.Simplex.iterations
    (count "refactorizations") fill (count "eta_nnz") (count "bound_flips") cold_s warm_s agree
    bound_piv bound_s bound_agree;
  (agree, bound_agree)

(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe [figures [--paper|--full] [--json] | ablations | adversarial | lp-large N] \
   [--jobs N|auto]"

let bad_usage fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s\n%s\n" msg usage;
      exit 2)
    fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Pull `--jobs N` out of the argument list; every remaining argument is
     handled by the per-mode matching below. *)
  let rec extract_jobs acc = function
    | "--jobs" :: "auto" :: rest -> (Pool.default_jobs (), List.rev_append acc rest)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> (n, List.rev_append acc rest)
        | _ -> bad_usage "bad --jobs value %S (expected a positive integer or \"auto\")" v)
    | "--jobs" :: [] -> bad_usage "--jobs needs a value"
    | x :: rest -> extract_jobs (x :: acc) rest
    | [] -> (Pool.default_jobs (), List.rev acc)
  in
  let jobs, args = extract_jobs [] args in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] ->
      figures ~profile:`Default ~jobs ();
      figures ~profile:`Full ~jobs ();
      ablations ~jobs ();
      adversarial ~jobs ()
  | "figures" :: rest ->
      List.iter
        (fun a ->
          if not (List.mem a [ "--full"; "--paper"; "--json" ]) then
            bad_usage "unknown figures argument %S" a)
        rest;
      let profile =
        if List.mem "--full" rest then `Full
        else if List.mem "--paper" rest then `Paper
        else `Default
      in
      figures ~profile ~jobs ~json:(List.mem "--json" rest) ()
  | [ "ablations" ] -> ablations ~jobs ()
  | [ "adversarial" ] -> adversarial ~jobs ()
  | [ "lp-large"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          let agree, bound_agree = lp_large n in
          if not agree then
            Printf.eprintf "FAIL: warm re-solve disagrees with the cold objective beyond 1e-6\n%!";
          if not bound_agree then
            Printf.eprintf
              "FAIL: Art_lp.lower_bound disagrees with the cold objective beyond 1e-6\n%!";
          if not (agree && bound_agree) then exit 1
      | _ -> bad_usage "bad lp-large size %S (expected a positive flow count)" n)
  | ("ablations" | "adversarial" | "lp-large") :: _ ->
      bad_usage "wrong arguments for %S" (String.concat " " args)
  | other :: _ -> bad_usage "unknown bench mode %S" other);
  section "Metrics registry";
  print_string (Flowsched_obs.Metrics.to_text (Flowsched_obs.Metrics.snapshot ()));
  Printf.printf "\nall benches finished in %.1fs\n%!" (elapsed t0)
