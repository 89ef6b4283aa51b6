open Flowsched_util
module E = Experiment
module Metrics = Flowsched_obs.Metrics

(* ------------------------------------------------------------------ *)
(* The cell result's own encoding                                      *)
(* ------------------------------------------------------------------ *)

let key (c : E.cell) =
  let s = c.E.spec in
  Printf.sprintf "%s|mode=%s|m=%d|rate=%h|T=%d|dmax=%d|seed=%d|lp=%b" c.E.workload
    (Matrix.mode_to_string c.E.mode) s.Scenario.m s.Scenario.rate s.Scenario.rounds
    s.Scenario.max_demand s.Scenario.seed c.E.lp

let lp_counter_names =
  [
    "solves"; "pivots"; "ftran_calls"; "refactorizations"; "full_pricing_scans";
    "partial_pricing_rounds"; "warm_attempts"; "warm_accepted"; "phase1_skipped"; "basis_nnz";
    "factor_nnz"; "eta_nnz"; "bound_flips";
  ]

let lp_gauge_names = [ "phase1_seconds"; "phase2_seconds" ]

let lp_counters_json snap =
  Json.Obj
    (List.map (fun n -> (n, Json.Int (Metrics.counter_in snap ("simplex." ^ n)))) lp_counter_names
    @ List.map (fun n -> (n, Json.float (Metrics.gauge_in snap ("simplex." ^ n)))) lp_gauge_names)

let option f = function None -> Json.Null | Some v -> f v

let encode (r : E.result) =
  let c = r.E.cell and b = r.E.bound in
  let s = c.E.spec in
  Json.Obj
    [
      ("workload", Json.Str c.E.workload);
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
                 [ ("name", Json.Str e.E.name); ("art", Json.float e.E.art); ("mrt", Json.Int e.E.mrt) ])
             r.E.entries) );
      ( "bound",
        Json.Obj
          [
            ("kind", Json.Str b.E.kind);
            ("avg", Json.float b.E.avg);
            ("max", Json.float b.E.max);
            ("error", option (fun e -> Json.Str e) b.E.error);
            ("lp_counters", option lp_counters_json b.E.lp_counters);
          ] );
      ("wall_s", Json.float r.E.wall_s);
    ]

exception Decode of string

(* Every field is required: an absent optional value is encoded as null,
   never dropped. *)
let field j name =
  match Json.member name j with Some v -> v | None -> raise (Decode (name ^ ": missing"))

let req name conv v = match conv v with Some x -> x | None -> raise (Decode (name ^ ": mistyped"))
let int j name = req name Json.to_int_opt (field j name)
let float j name = req name Json.to_float_opt (field j name)
let str j name = req name Json.to_string_opt (field j name)
let opt f j name = match field j name with Json.Null -> None | v -> Some (f v)

let check what expected got = if expected <> got then raise (Decode ("mismatched " ^ what))

(* Zero entries are left out, as in the registry diff the cell stored. *)
let lp_counters_of_json j =
  List.map (fun n -> ("simplex." ^ n, Metrics.Counter (int j n))) lp_counter_names
  @ List.map (fun n -> ("simplex." ^ n, Metrics.Gauge (float j n))) lp_gauge_names
  |> List.filter (fun (_, v) -> v <> Metrics.Counter 0 && v <> Metrics.Gauge 0.)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let decode (cell : E.cell) j =
  let s = cell.E.spec in
  try
    check "workload" cell.E.workload (str j "workload");
    check "mode" (Matrix.mode_to_string cell.E.mode) (str j "mode");
    check "m" s.Scenario.m (int j "m");
    check "rate" s.Scenario.rate (float j "rate");
    check "rounds" s.Scenario.rounds (int j "rounds");
    check "max_demand" s.Scenario.max_demand (int j "max_demand");
    check "seed" s.Scenario.seed (int j "seed");
    check "lp" cell.E.lp (req "lp" Json.to_bool_opt (field j "lp"));
    let entries =
      match field j "entries" with
      | Json.Arr es ->
          List.map (fun e -> { E.name = str e "name"; art = float e "art"; mrt = int e "mrt" }) es
      | _ -> raise (Decode "entries: mistyped")
    in
    let b = field j "bound" in
    let bound =
      {
        E.kind = str b "kind";
        avg = float b "avg";
        max = float b "max";
        error = opt (req "error" Json.to_string_opt) b "error";
        lp_counters = opt lp_counters_of_json b "lp_counters";
      }
    in
    Ok { E.cell; flows = int j "flows"; entries; bound; wall_s = float j "wall_s" }
  with Decode msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Line format.  Each line is a JSON object whose first field is a      *)
(* CRC-32 (hex) of the rest of the object serialized compactly:         *)
(*   {"crc": "xxxxxxxx", "key": ..., "result": ...}                     *)
(* The CRC lets the loader tell a torn tail (the writer was killed      *)
(* mid-append: drop the line and continue) from mid-file bit rot (fail  *)
(* loudly with the line number) — JSON parse failure alone cannot       *)
(* catch a flipped digit inside a number.                               *)
(* ------------------------------------------------------------------ *)

type t = {
  path : string;
  entries : (string, Json.t) Hashtbl.t;  (* key -> recorded result object *)
  oc : Out_channel.t;
  loaded : int;
}

type entry = { key : string; result : Json.t }

let seal ~key result =
  let body = Json.to_string ~pretty:false (Json.Obj [ ("key", Json.Str key); ("result", result) ]) in
  (* [body] is "{...}": splice the checksum in as the first field. *)
  Printf.sprintf "{\"crc\": \"%08x\", %s" (Crc.string body)
    (String.sub body 1 (String.length body - 1))

(* A line is [Torn] when it could be the tail of an interrupted append
   (incomplete JSON, or a checksum that does not match — the write never
   finished); it is [Bad] when the checksum proves the line was written in
   full but its structure is still wrong. *)
type parsed = Entry of entry | Torn of string | Bad of string

let parse_line line =
  match Json.parse line with
  | Error msg -> Torn ("not valid JSON: " ^ msg)
  | Ok (Json.Obj (("crc", Json.Str stored) :: rest)) -> (
      let body = Json.Obj rest in
      let computed = Printf.sprintf "%08x" (Crc.string (Json.to_string ~pretty:false body)) in
      if not (String.equal stored computed) then
        Torn (Printf.sprintf "CRC mismatch (stored %s, computed %s)" stored computed)
      else
        match
          (Option.bind (Json.member "key" body) Json.to_string_opt, Json.member "result" body)
        with
        | Some key, Some result -> Entry { key; result }
        | _ -> Bad "checksummed line is not a checkpoint entry (expected key + result)")
  | Ok _ -> Torn "missing leading crc field"

let read_entries ~path =
  if not (Sys.file_exists path) then []
  else begin
    let data = In_channel.with_open_bin path In_channel.input_all in
    let lines =
      String.split_on_char '\n' data |> List.filter (fun l -> String.trim l <> "")
    in
    let n = List.length lines in
    List.mapi (fun i line -> (i, parse_line line)) lines
    |> List.filter_map (function
         | _, Entry e -> Some e
         | i, Torn msg when i = n - 1 ->
             (* The tail of a file whose writer was killed mid-append: drop
                it (callers rewrite the valid prefix, so appends stay clean). *)
             Printf.eprintf "checkpoint %s: dropping partial final line (%s)\n%!" path msg;
             None
         | i, (Torn msg | Bad msg) ->
             failwith
               (Printf.sprintf "checkpoint %s is corrupt at line %d: %s" path (i + 1) msg))
  end

let loaded t = t.loaded

let open_ ~path ~resume =
  let entries = Hashtbl.create 64 in
  let valid = if resume then read_entries ~path else [] in
  List.iter (fun e -> Hashtbl.replace entries e.key e.result) valid;
  (* Truncate-and-rewrite the valid prefix (cheap next to the compute the
     file is saving), leaving the channel positioned for appends.  Sealing
     is deterministic, so surviving lines keep their exact bytes. *)
  let oc = Out_channel.open_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
  List.iter
    (fun e ->
      Out_channel.output_string oc (seal ~key:e.key e.result);
      Out_channel.output_char oc '\n')
    valid;
  Out_channel.flush oc;
  { path; entries; oc; loaded = Hashtbl.length entries }

let close t = Out_channel.close t.oc

let append t ~key result =
  Out_channel.output_string t.oc (seal ~key result);
  Out_channel.output_char t.oc '\n';
  (* One flush per cell: a kill between cells never loses a settled one. *)
  Out_channel.flush t.oc;
  Hashtbl.replace t.entries key result

(* Partition cells against the store, run only the remainder (persisting
   each completion), and merge back in grid order. *)
let run ~policies ?progress ?jobs ?timeout ?retries ?faults ?(on_append = ignore) t cells =
  let recovered = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun c ->
        let k = key c in
        if Hashtbl.mem recovered k then false
        else
          match Hashtbl.find_opt t.entries k with
          | Some j ->
              (match decode c j with
              | Ok r -> Hashtbl.replace recovered k r
              | Error msg ->
                  failwith
                    (Printf.sprintf "checkpoint %s: entry for %s does not decode: %s" t.path k
                       msg));
              false
          | None -> true)
      cells
  in
  let on_result c r =
    let k = key c in
    append t ~key:k (encode r);
    on_append k
  in
  let fresh =
    Queue.of_seq
      (List.to_seq
         (E.run ~policies ?progress ?jobs ?timeout ?retries ?faults ~on_result todo))
  in
  List.map
    (fun c ->
      match Hashtbl.find_opt recovered (key c) with Some r -> r | None -> Queue.pop fresh)
    cells
