open Flowsched_util
module Experiment = Flowsched_sim.Experiment
module Checkpoint = Flowsched_sim.Checkpoint

type report = {
  shards : int;
  manifests_present : int list;
  expected_cells : int;
  found_cells : int;
  duplicate_cells : int;
  missing : (string * int) list;
}

let ( let* ) = Result.bind

let load_manifests ~dir ~kind ~policies ~all_keys =
  let paths = Shard.scan dir in
  if paths = [] then Error (Printf.sprintf "no shard manifests in %s" dir)
  else
    let* manifests =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* m = Shard.load_manifest path in
          Ok (m :: acc))
        (Ok []) paths
    in
    let manifests = List.rev manifests in
    (* The workers agreed on the shard count out-of-band (their --shard I/N
       flags); the merge learns it from the first manifest and holds every
       other manifest — via [compatible] — to the same count, kind,
       fingerprint, and policy set as this invocation's own grid. *)
    let shards = (List.hd manifests).Shard.shards in
    let reference = Shard.make ~kind ~shards ~index:0 ~policies all_keys in
    let* () =
      List.fold_left
        (fun acc m ->
          let* () = acc in
          match Shard.compatible reference m with
          | Ok () -> Ok ()
          | Error msg ->
              Error
                (Printf.sprintf "shard %d-of-%d does not belong to this grid: %s" m.Shard.index
                   m.Shard.shards msg))
        (Ok ()) manifests
    in
    let seen = Hashtbl.create 8 in
    let* () =
      List.fold_left
        (fun acc (m : Shard.manifest) ->
          let* () = acc in
          if Hashtbl.mem seen m.Shard.index then
            Error (Printf.sprintf "duplicate manifest for shard %d" m.Shard.index)
          else begin
            Hashtbl.add seen m.Shard.index ();
            Ok ()
          end)
        (Ok ()) manifests
    in
    Ok manifests

(* Fold one shard's checkpoint entries into the accumulator table.  Every
   entry must decode against its grid cell; a cell present in two shards
   (or twice in one file) is a free determinism audit — the deterministic
   projections (timing stripped) must be byte-equal, and a conflict is an
   error, never last-writer-wins. *)
let absorb_shard ~dir ~cell_of_key ~table ~duplicates (m : Shard.manifest) =
  let path =
    Filename.concat dir (Shard.checkpoint_name ~shards:m.Shard.shards ~index:m.Shard.index)
  in
  let* entries =
    match Checkpoint.read_entries ~path with
    | entries -> Ok entries
    | exception Failure msg -> Error msg
  in
  List.fold_left
    (fun acc (e : Checkpoint.entry) ->
      let* () = acc in
      let key = e.Checkpoint.key in
      match Hashtbl.find_opt cell_of_key key with
      | None -> Error (Printf.sprintf "%s: entry %s is not a cell of this grid" path key)
      | Some cell -> (
          match Checkpoint.decode cell e.Checkpoint.result with
          | Error msg -> Error (Printf.sprintf "%s: entry %s does not decode: %s" path key msg)
          | Ok r -> (
              let stripped =
                Json.to_string (Checkpoint.encode (Experiment.strip_timing r))
              in
              match Hashtbl.find_opt table key with
              | None ->
                  Hashtbl.add table key (m.Shard.index, r, stripped);
                  Ok ()
              | Some (first_shard, _, stripped0) ->
                  incr duplicates;
                  if String.equal stripped0 stripped then Ok ()
                  else
                    Error
                      (Printf.sprintf
                         "cell %s was computed by shard %d and shard %d with different results \
                          — determinism violation, refusing to merge"
                         key first_shard m.Shard.index))))
    (Ok ()) entries

let sweep ~dir ~policies cells =
  let keys = List.map Checkpoint.key cells in
  let* manifests = load_manifests ~dir ~kind:"sweep" ~policies ~all_keys:keys in
  let shards = (List.hd manifests).Shard.shards in
  let cell_of_key = Hashtbl.create (List.length cells) in
  List.iter2 (fun k c -> Hashtbl.replace cell_of_key k c) keys cells;
  let table = Hashtbl.create (List.length cells) in
  let duplicates = ref 0 in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        absorb_shard ~dir ~cell_of_key ~table ~duplicates m)
      (Ok ()) manifests
  in
  let missing =
    List.mapi (fun i k -> (i, k)) keys
    |> List.filter (fun (_, k) -> not (Hashtbl.mem table k))
    |> List.map (fun (i, k) -> (k, Shard.owner_of ~shards i))
  in
  let results =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt table k with Some (_, r, _) -> Some r | None -> None)
      keys
  in
  Ok
    ( results,
      {
        shards;
        manifests_present = List.map (fun (m : Shard.manifest) -> m.Shard.index) manifests;
        expected_cells = List.length cells;
        found_cells = List.length results;
        duplicate_cells = !duplicates;
        missing;
      } )
