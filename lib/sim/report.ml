open Flowsched_util

let series objective (cell : Experiment.cell_result) =
  match objective with
  | `Avg -> (cell.Experiment.avg_response, cell.Experiment.lp_avg_bound)
  | `Max -> (cell.Experiment.max_response, cell.Experiment.lp_max_bound)

let table objective results =
  let policy_names =
    match results with
    | [] -> []
    | cell :: _ -> List.map fst (fst (series objective cell))
  in
  let columns =
    [ ("M/m", Table.Right); ("T", Table.Right); ("flows", Table.Right) ]
    @ List.concat_map
        (fun n -> [ (n, Table.Right); (n ^ "/LP", Table.Right) ])
        policy_names
    @ [ ("LP bound", Table.Right) ]
  in
  let t = Table.create columns in
  let last_congestion = ref nan in
  List.iter
    (fun (cell : Experiment.cell_result) ->
      let cfg = cell.Experiment.config in
      let congestion = cfg.Experiment.rate /. float_of_int cfg.Experiment.m in
      if (not (Float.is_nan !last_congestion)) && congestion <> !last_congestion then
        Table.add_separator t;
      last_congestion := congestion;
      let values, lp = series objective cell in
      Table.add_row t
        ([
           Table.cell_float ~decimals:2 congestion;
           string_of_int cfg.Experiment.rounds;
           Table.cell_float ~decimals:1 cell.Experiment.flows_mean;
         ]
        @ List.concat_map
            (fun (_, v) -> [ Table.cell_float v; Table.cell_ratio v lp ])
            values
        @ [ Table.cell_float lp ]))
    results;
  Table.render t

let fig6_table results = table `Avg results
let fig7_table results = table `Max results

(* ------------------------------------------------------------------ *)
(* JSON artifacts                                                      *)
(* ------------------------------------------------------------------ *)

let policy_series_json values = Json.Obj (List.map (fun (name, v) -> (name, Json.float v)) values)

let cell_json (cell : Experiment.cell_result) =
  let cfg = cell.Experiment.config in
  Json.Obj
    [
      ("m", Json.Int cfg.Experiment.m);
      ("rate", Json.Float cfg.Experiment.rate);
      ("rounds", Json.Int cfg.Experiment.rounds);
      ("tries", Json.Int cfg.Experiment.tries);
      ("seed", Json.Int cfg.Experiment.seed);
      ("with_lp", Json.Bool cfg.Experiment.with_lp);
      ("flows_mean", Json.float cell.Experiment.flows_mean);
      ("avg_response", policy_series_json cell.Experiment.avg_response);
      ("max_response", policy_series_json cell.Experiment.max_response);
      ("lp_avg_bound", Json.float cell.Experiment.lp_avg_bound);
      ("lp_max_bound", Json.float cell.Experiment.lp_max_bound);
    ]

let figures_json ?(jobs = 1) results =
  Json.Obj
    [
      ("schema", Json.Str "flowsched-figures/1");
      ("jobs", Json.Int jobs);
      ("cells", Json.Arr (List.map cell_json results));
    ]

let lp_counters_json (c : Flowsched_lp.Simplex.counters) =
  Json.Obj
    [
      ("solves", Json.Int c.Flowsched_lp.Simplex.solves);
      ("pivots", Json.Int c.Flowsched_lp.Simplex.pivots);
      ("ftran_calls", Json.Int c.Flowsched_lp.Simplex.ftran_calls);
      ("refactorizations", Json.Int c.Flowsched_lp.Simplex.refactorizations);
      ("full_pricing_scans", Json.Int c.Flowsched_lp.Simplex.full_pricing_scans);
      ("partial_pricing_rounds", Json.Int c.Flowsched_lp.Simplex.partial_pricing_rounds);
      ("warm_attempts", Json.Int c.Flowsched_lp.Simplex.warm_attempts);
      ("warm_accepted", Json.Int c.Flowsched_lp.Simplex.warm_accepted);
      ("phase1_skipped", Json.Int c.Flowsched_lp.Simplex.phase1_skipped);
      ("basis_nnz", Json.Int c.Flowsched_lp.Simplex.basis_nnz);
      ("factor_nnz", Json.Int c.Flowsched_lp.Simplex.factor_nnz);
      ("eta_nnz", Json.Int c.Flowsched_lp.Simplex.eta_nnz);
      ("bound_flips", Json.Int c.Flowsched_lp.Simplex.bound_flips);
      ("phase1_seconds", Json.float c.Flowsched_lp.Simplex.phase1_seconds);
      ("phase2_seconds", Json.float c.Flowsched_lp.Simplex.phase2_seconds);
    ]

let sweep_cell_json (r : Experiment.sweep_result) =
  let s = r.Experiment.sweep in
  Json.Obj
    [
      ("workload", Json.Str s.Experiment.workload);
      ("m", Json.Int s.Experiment.ports);
      ("rate", Json.Float s.Experiment.arrival_rate);
      ("rounds", Json.Int s.Experiment.horizon);
      ("max_demand", Json.Int s.Experiment.max_demand);
      ("seed", Json.Int s.Experiment.sweep_seed);
      ("flows", Json.Int r.Experiment.flows);
      ( "policies",
        Json.Arr
          (List.map
             (fun (p : Experiment.sweep_policy_result) ->
               Json.Obj
                 [
                   ("name", Json.Str p.Experiment.policy);
                   ("avg_response", Json.float p.Experiment.art);
                   ("max_response", Json.Int p.Experiment.mrt);
                 ])
             r.Experiment.per_policy) );
      ("lp_avg_bound", Json.float r.Experiment.lp_avg);
      ("lp_max_bound", Json.float r.Experiment.lp_max);
      ( "lp_counters",
        match r.Experiment.lp_counters with
        | None -> Json.Null
        | Some c -> lp_counters_json c );
      ( "lp_error",
        match r.Experiment.lp_error with None -> Json.Null | Some e -> Json.Str e );
      ("wall_clock_s", Json.float r.Experiment.wall_s);
    ]

let sweep_json ?(jobs = 1) ?metrics results =
  Json.Obj
    ([
       ("schema", Json.Str "flowsched-sweep/1");
       ("jobs", Json.Int jobs);
       ("cells", Json.Arr (List.map sweep_cell_json results));
     ]
    @ match metrics with
      | None -> []
      | Some m -> [ ("metrics", m) ])

(* ------------------------------------------------------------------ *)
(* Artifact decoders — exact inverses of the cell encoders above, used  *)
(* by Checkpoint to reload completed cells.  Invariant (tested):        *)
(* re-encoding a decoded cell reproduces the original bytes, which is   *)
(* what makes a resumed sweep artifact byte-identical.                  *)
(* ------------------------------------------------------------------ *)

(* The deterministic projection of a sweep result: everything except the
   wall-clock readings, which legitimately differ between two runs of the
   same cell.  Two computations of one cell must agree here byte-for-byte
   — the merge pipeline's duplicate audit and the chaos tests both compare
   [sweep_cell_json (strip_sweep_timing r)] strings. *)
let strip_sweep_timing (r : Experiment.sweep_result) =
  let lp_counters =
    Option.map
      (fun (c : Flowsched_lp.Simplex.counters) ->
        { c with Flowsched_lp.Simplex.phase1_seconds = 0.; phase2_seconds = 0. })
      r.Experiment.lp_counters
  in
  { r with Experiment.wall_s = 0.; lp_counters }

exception Decode of string

let req what = function Some v -> v | None -> raise (Decode (what ^ ": missing or mistyped"))
let req_int j name = req name (Option.bind (Json.member name j) Json.to_int_opt)
let req_float j name = req name (Option.bind (Json.member name j) Json.to_float_opt)
let req_str j name = req name (Option.bind (Json.member name j) Json.to_string_opt)

let opt_str j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some (req name (Json.to_string_opt v))

let lp_counters_of_json j =
  {
    Flowsched_lp.Simplex.solves = req_int j "solves";
    pivots = req_int j "pivots";
    ftran_calls = req_int j "ftran_calls";
    refactorizations = req_int j "refactorizations";
    full_pricing_scans = req_int j "full_pricing_scans";
    partial_pricing_rounds = req_int j "partial_pricing_rounds";
    warm_attempts = req_int j "warm_attempts";
    warm_accepted = req_int j "warm_accepted";
    phase1_skipped = req_int j "phase1_skipped";
    basis_nnz = req_int j "basis_nnz";
    factor_nnz = req_int j "factor_nnz";
    eta_nnz = req_int j "eta_nnz";
    bound_flips = req_int j "bound_flips";
    phase1_seconds = req_float j "phase1_seconds";
    phase2_seconds = req_float j "phase2_seconds";
  }

let check what expected got = if expected <> got then raise (Decode ("mismatched " ^ what))

let sweep_result_of_json ~sweep j =
  try
    check "workload" sweep.Experiment.workload (req_str j "workload");
    check "m" sweep.Experiment.ports (req_int j "m");
    check "seed" sweep.Experiment.sweep_seed (req_int j "seed");
    check "rounds" sweep.Experiment.horizon (req_int j "rounds");
    let per_policy =
      match Json.member "policies" j with
      | Some (Json.Arr pols) ->
          List.map
            (fun pj ->
              {
                Experiment.policy = req_str pj "name";
                art = req_float pj "avg_response";
                mrt = req_int pj "max_response";
              })
            pols
      | _ -> raise (Decode "policies: missing or mistyped")
    in
    let lp_counters =
      match Json.member "lp_counters" j with
      | None | Some Json.Null -> None
      | Some c -> Some (lp_counters_of_json c)
    in
    Ok
      {
        Experiment.sweep;
        flows = req_int j "flows";
        per_policy;
        lp_avg = req_float j "lp_avg_bound";
        lp_max = req_float j "lp_max_bound";
        lp_counters;
        lp_error = opt_str j "lp_error";
        wall_s = req_float j "wall_clock_s";
      }
  with Decode msg -> Error msg

let csv ~objective results =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "m,rate,rounds,tries,flows,policy,value,lp_bound\n";
  List.iter
    (fun (cell : Experiment.cell_result) ->
      let cfg = cell.Experiment.config in
      let values, lp = series objective cell in
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%g,%d,%d,%g,%s,%g,%g\n" cfg.Experiment.m cfg.Experiment.rate
               cfg.Experiment.rounds cfg.Experiment.tries cell.Experiment.flows_mean name v lp))
        values)
    results;
  Buffer.contents buf
