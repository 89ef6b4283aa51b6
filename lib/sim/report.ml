open Flowsched_util
module E = Experiment

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: a row is the mean over its tries                   *)
(* ------------------------------------------------------------------ *)

(* Tries that drew an empty instance are skipped, and the rest are summed
   newest first: a float sum's last bits depend on its order, and
   goldens/figures.json pins this one. *)
let row_mean f row =
  Stats.mean (Array.of_list (List.rev_map f (List.filter (fun (r : E.result) -> r.E.flows > 0) row)))

(* Per-policy means of one objective, and the mean of its bound. *)
let series objective row =
  let value, bound =
    match objective with
    | `Avg -> ((fun (e : E.entry) -> e.E.art), fun (b : E.bound) -> b.E.avg)
    | `Max -> ((fun e -> float_of_int e.E.mrt), fun b -> b.E.max)
  in
  ( List.mapi
      (fun i (e : E.entry) ->
        (e.E.name, row_mean (fun (r : E.result) -> value (List.nth r.E.entries i)) row))
      (List.hd row).E.entries,
    row_mean (fun r -> bound r.E.bound) row )

let row_spec row = (List.hd row).E.cell.E.spec

let table objective rows =
  let policy_names =
    match rows with [] -> [] | row :: _ -> List.map fst (fst (series objective row))
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
    (fun row ->
      let s = row_spec row in
      let congestion = s.Scenario.rate /. float_of_int s.Scenario.m in
      if (not (Float.is_nan !last_congestion)) && congestion <> !last_congestion then
        Table.add_separator t;
      last_congestion := congestion;
      let values, lp = series objective row in
      Table.add_row t
        ([
           Table.cell_float ~decimals:2 congestion;
           string_of_int s.Scenario.rounds;
           Table.cell_float ~decimals:1 (row_mean (fun r -> float_of_int r.E.flows) row);
         ]
        @ List.concat_map
            (fun (_, v) -> [ Table.cell_float v; Table.cell_ratio v lp ])
            values
        @ [ Table.cell_float lp ]))
    rows;
  Table.render t

let fig6_table rows = table `Avg rows
let fig7_table rows = table `Max rows

let policy_series_json values = Json.Obj (List.map (fun (name, v) -> (name, Json.float v)) values)

let row_json row =
  let s = row_spec row in
  let avg, lp_avg = series `Avg row and mrt, lp_max = series `Max row in
  Json.Obj
    [
      ("m", Json.Int s.Scenario.m);
      ("rate", Json.Float s.Scenario.rate);
      ("rounds", Json.Int s.Scenario.rounds);
      ("tries", Json.Int (List.length row));
      ("seed", Json.Int s.Scenario.seed);
      ("with_lp", Json.Bool (List.hd row).E.cell.E.lp);
      ("flows_mean", Json.float (row_mean (fun r -> float_of_int r.E.flows) row));
      ("avg_response", policy_series_json avg);
      ("max_response", policy_series_json mrt);
      ("lp_avg_bound", Json.float lp_avg);
      ("lp_max_bound", Json.float lp_max);
    ]

let figures_json ?(jobs = 1) rows =
  Json.Obj
    [
      ("schema", Json.Str "flowsched-figures/1");
      ("jobs", Json.Int jobs);
      ("cells", Json.Arr (List.map row_json rows));
    ]

(* ------------------------------------------------------------------ *)
(* Sweep and matrix artifacts                                          *)
(* ------------------------------------------------------------------ *)

let option f = function None -> Json.Null | Some v -> f v

let sweep_cell_json (r : E.result) =
  let s = r.E.cell.E.spec and b = r.E.bound in
  Json.Obj
    [
      ("workload", Json.Str r.E.cell.E.workload);
      ("m", Json.Int s.Scenario.m);
      ("rate", Json.Float s.Scenario.rate);
      ("rounds", Json.Int s.Scenario.rounds);
      ("max_demand", Json.Int s.Scenario.max_demand);
      ("seed", Json.Int s.Scenario.seed);
      ("flows", Json.Int r.E.flows);
      ( "policies",
        Json.Arr
          (List.map
             (fun (e : E.entry) ->
               Json.Obj
                 [
                   ("name", Json.Str e.E.name);
                   ("avg_response", Json.float e.E.art);
                   ("max_response", Json.Int e.E.mrt);
                 ])
             r.E.entries) );
      ("lp_avg_bound", Json.float b.E.avg);
      ("lp_max_bound", Json.float b.E.max);
      ("lp_counters", option Checkpoint.lp_counters_json b.E.lp_counters);
      ("lp_error", option (fun e -> Json.Str e) b.E.error);
      ("wall_clock_s", Json.float r.E.wall_s);
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

let matrix_cell_json (r : E.result) =
  let c = r.E.cell and b = r.E.bound in
  let s = c.E.spec in
  Json.Obj
    [
      ("workload", Json.Str (Scenario.to_string s.Scenario.kind));
      ("mode", Json.Str (Matrix.mode_to_string c.E.mode));
      ("m", Json.Int s.Scenario.m);
      ("rate", Json.Float s.Scenario.rate);
      ("rounds", Json.Int s.Scenario.rounds);
      ("max_demand", Json.Int s.Scenario.max_demand);
      ("seed", Json.Int s.Scenario.seed);
      ("lp", Json.Bool c.E.lp);
      ("flows", Json.Int r.E.flows);
      ( "entries",
        Json.Arr
          (List.map
             (fun (e : E.entry) ->
               Json.Obj
                 [
                   ("policy", Json.Str e.E.name);
                   ("art", Json.float e.E.art);
                   ("mrt", Json.Int e.E.mrt);
                 ])
             r.E.entries) );
      ("bound_kind", Json.Str b.E.kind);
      ("bound_avg", Json.float b.E.avg);
      ("bound_max", Json.float b.E.max);
      ("error", option (fun e -> Json.Str e) b.E.error);
    ]

let matrix_json results =
  Json.Obj
    [
      ("schema", Json.Str "flowsched-matrix/1");
      ("cells", Json.Arr (List.map matrix_cell_json results));
    ]
