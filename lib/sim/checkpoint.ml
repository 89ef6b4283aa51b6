open Flowsched_util

type t = {
  path : string;
  entries : (string, Json.t) Hashtbl.t;  (* key -> recorded result object *)
  oc : Out_channel.t;
  mutable loaded : int;
}

type entry = { kind : string; key : string; result : Json.t }

(* Canonical cell identities.  Floats print as hex (%h): exact, so a rate
   of 2.0 and 2.0000000000000004 never collide into one key. *)
let sweep_key (s : Experiment.sweep_config) =
  Printf.sprintf "sweep|%s|m=%d|rate=%h|T=%d|dmax=%d|seed=%d|lp=%b" s.Experiment.workload
    s.Experiment.ports s.Experiment.arrival_rate s.Experiment.horizon s.Experiment.max_demand
    s.Experiment.sweep_seed s.Experiment.lp

(* ------------------------------------------------------------------ *)
(* Line format.  Each line is a JSON object whose first field is a      *)
(* CRC-32 (hex) of the rest of the object serialized compactly:         *)
(*   {"crc": "xxxxxxxx", "kind": ..., "key": ..., "result": ...}        *)
(* The CRC lets the loader tell a torn tail (the writer was killed      *)
(* mid-append: drop the line and continue) from mid-file bit rot (fail  *)
(* loudly with the line number) — JSON parse failure alone cannot       *)
(* catch a flipped digit inside a number.                               *)
(* ------------------------------------------------------------------ *)

let entry_json ~kind ~key result =
  Json.Obj [ ("kind", Json.Str kind); ("key", Json.Str key); ("result", result) ]

let seal ~kind ~key result =
  let body = Json.to_string ~pretty:false (entry_json ~kind ~key result) in
  (* [body] is "{...}": splice the checksum in as the first field. *)
  Printf.sprintf "{\"crc\": \"%08x\", %s" (Crc.string body)
    (String.sub body 1 (String.length body - 1))

(* A line is [Torn] when it could be the tail of an interrupted append
   (incomplete JSON, or a checksum that does not match — the write never
   finished); it is a hard [Error] when the checksum proves the line was
   written in full but its structure is still wrong. *)
type parsed = Entry of entry | Torn of string | Bad of string

let parse_line line =
  match Json.parse line with
  | Error msg -> Torn ("not valid JSON: " ^ msg)
  | Ok (Json.Obj (("crc", Json.Str stored) :: rest)) -> (
      let body = Json.to_string ~pretty:false (Json.Obj rest) in
      let computed = Printf.sprintf "%08x" (Crc.string body) in
      if not (String.equal stored computed) then
        Torn (Printf.sprintf "CRC mismatch (stored %s, computed %s)" stored computed)
      else
        match
          ( Option.bind (Json.member "kind" (Json.Obj rest)) Json.to_string_opt,
            Option.bind (Json.member "key" (Json.Obj rest)) Json.to_string_opt,
            Json.member "result" (Json.Obj rest) )
        with
        | Some kind, Some key, Some result -> Entry { kind; key; result }
        | _ -> Bad "checksummed line is not a checkpoint entry (expected kind + key + result)")
  | Ok _ -> Torn "missing leading crc field"

let read_entries ~path =
  if not (Sys.file_exists path) then []
  else begin
    let data = In_channel.with_open_bin path In_channel.input_all in
    let lines =
      String.split_on_char '\n' data |> List.filter (fun l -> String.trim l <> "")
    in
    let n = List.length lines in
    List.filteri
      (fun i line ->
        match parse_line line with
        | Entry _ -> true
        | Torn msg when i = n - 1 ->
            (* The tail of a file whose writer was killed mid-append: drop
               it (callers rewrite the valid prefix, so appends stay clean). *)
            Printf.eprintf "checkpoint %s: dropping partial final line (%s)\n%!" path msg;
            false
        | Torn msg | Bad msg ->
            failwith
              (Printf.sprintf "checkpoint %s is corrupt at line %d: %s" path (i + 1) msg))
      lines
    |> List.map (fun line ->
           match parse_line line with
           | Entry e -> e
           | Torn _ | Bad _ -> assert false)
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
      Out_channel.output_string oc (seal ~kind:e.kind ~key:e.key e.result);
      Out_channel.output_char oc '\n')
    valid;
  Out_channel.flush oc;
  { path; entries; oc; loaded = Hashtbl.length entries }

let close t = Out_channel.close t.oc

let append t ~kind ~key result =
  Out_channel.output_string t.oc (seal ~kind ~key result);
  Out_channel.output_char t.oc '\n';
  (* One flush per cell: a kill between cells never loses a settled one. *)
  Out_channel.flush t.oc;
  Hashtbl.replace t.entries key result

(* Partition cells against the store, run only the remainder (persisting
   each completion), and merge back in grid order. *)
let resume_run ~kind ~key ?(on_append = fun _ -> ()) ~decode ~encode ~run_cells t cells =
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
  let fresh =
    match todo with
    | [] -> []
    | _ ->
        run_cells
          (fun c r ->
            let k = key c in
            append t ~kind ~key:k (encode r);
            on_append k)
          todo
  in
  let q = Queue.create () in
  List.iter (fun r -> Queue.add r q) fresh;
  List.map
    (fun c ->
      match Hashtbl.find_opt recovered (key c) with Some r -> r | None -> Queue.pop q)
    cells

let run_sweep ~policies ?progress ?jobs ?timeout ?retries ?faults ?on_append t cells =
  resume_run ~kind:"sweep" ~key:sweep_key ?on_append
    ~decode:(fun c j -> Report.sweep_result_of_json ~sweep:c j)
    ~encode:Report.sweep_cell_json
    ~run_cells:(fun on_result todo ->
      Experiment.run_sweep ~policies ?progress ?jobs ?timeout ?retries ?faults ~on_result todo)
    t cells
