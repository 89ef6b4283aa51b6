(* The distributed layer: shard planning, filesystem leases, and the
   verifying merge.  The invariant under test throughout: a sharded run —
   including one where a worker is killed mid-shard and its lease is taken
   over — merges into exactly the results an uninterrupted single-box run
   produces (up to the documented per-cell timing fields). *)

module Experiment = Flowsched_sim.Experiment
module Report = Flowsched_sim.Report
module Checkpoint = Flowsched_sim.Checkpoint
module Shard = Flowsched_dist.Shard
module Lease = Flowsched_dist.Lease
module Merge = Flowsched_dist.Merge
module Json = Flowsched_util.Json
module Heuristics = Flowsched_online.Heuristics

let policies = [ Heuristics.maxcard; Heuristics.minrtime ]
let policy_names = [ "maxcard"; "minrtime" ]

let grid ~kinds ~m ~rounds ~seeds =
  Result.get_ok
    (Experiment.grid ~kinds ~modes:[ Flowsched_sim.Matrix.Flows ] ~m ~rates:[ 2.0 ] ~rounds
       ~max_demand:2 ~seeds ~lp:false)

let sweep_cells = grid ~kinds:[ "poisson"; "uniform" ] ~m:4 ~rounds:[ 4 ] ~seeds:[ 1; 2; 3 ]

let strip = Experiment.strip_timing

let artifact results =
  Json.to_string (Report.sweep_json ~jobs:1 (List.map strip results))

let with_temp_dir f =
  let dir = Filename.temp_file "flowsched_dist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec go i = i + k <= n && (String.sub haystack i k = needle || go (i + 1)) in
  go 0

(* Run one shard the way [flowsched sweep --shard] does, minus the lease:
   plan the subset, fill the checkpoint, register the manifest. *)
let run_shard ~dir ~shards ~index cells =
  let all_keys = List.map Checkpoint.key cells in
  let mine = Shard.plan ~shards ~index cells in
  ignore
    (Shard.write_manifest ~dir
       (Shard.make ~kind:"sweep" ~shards ~index ~policies:policy_names all_keys));
  let path = Filename.concat dir (Shard.checkpoint_name ~shards ~index) in
  let ck = Checkpoint.open_ ~path ~resume:true in
  Fun.protect
    ~finally:(fun () -> Checkpoint.close ck)
    (fun () -> ignore (Checkpoint.run ~policies ~jobs:1 ck mine))

(* --- shard planning --- *)

let test_plan_partitions () =
  let cells = List.init 13 Fun.id in
  List.iter
    (fun shards ->
      let parts = List.init shards (fun index -> Shard.plan ~shards ~index cells) in
      List.iter
        (fun part ->
          Alcotest.(check bool) "each part is in grid order" true
            (List.sort compare part = part))
        parts;
      Alcotest.(check (list int))
        (Printf.sprintf "%d shards partition exactly" shards)
        cells
        (List.sort compare (List.concat parts));
      List.iteri
        (fun index part ->
          List.iter
            (fun i ->
              Alcotest.(check int) "owner_of agrees with plan" index
                (Shard.owner_of ~shards i))
            part)
        parts)
    [ 1; 2; 3; 5; 13; 17 ];
  Alcotest.(check bool) "bad shard count rejected" true
    (match Shard.plan ~shards:0 ~index:0 cells with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out-of-range index rejected" true
    (match Shard.plan ~shards:3 ~index:3 cells with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_fingerprint_sensitivity () =
  let keys = [ "a"; "b"; "c" ] in
  let fp = Shard.fingerprint keys in
  Alcotest.(check string) "deterministic" fp (Shard.fingerprint keys);
  List.iter
    (fun other ->
      Alcotest.(check bool) "any grid change changes the fingerprint" true
        (fp <> Shard.fingerprint other))
    [ [ "a"; "b" ]; [ "a"; "b"; "d" ]; [ "b"; "a"; "c" ]; [ "a"; "b"; "c"; "d" ]; [] ]

let test_manifest_roundtrip () =
  let m = Shard.make ~kind:"sweep" ~shards:3 ~index:1 ~policies:policy_names
      [ "k0"; "k1"; "k2"; "k3"; "k4" ]
  in
  (match Shard.manifest_of_json (Shard.manifest_json m) with
  | Ok m' -> Alcotest.(check bool) "json round-trip" true (m = m')
  | Error e -> Alcotest.failf "manifest does not round-trip: %s" e);
  Alcotest.(check int) "manifest keys are the shard's plan" 2 (List.length m.Shard.keys);
  with_temp_dir @@ fun dir ->
  let path = Shard.write_manifest ~dir m in
  (match Shard.load_manifest path with
  | Ok m' -> Alcotest.(check bool) "disk round-trip" true (m = m')
  | Error e -> Alcotest.failf "manifest does not load: %s" e);
  Alcotest.(check (list string)) "scan finds it" [ path ] (Shard.scan dir)

let test_manifest_compatibility () =
  let keys = [ "k0"; "k1"; "k2" ] in
  let m = Shard.make ~kind:"sweep" ~shards:2 ~index:0 ~policies:policy_names keys in
  let ok = Shard.make ~kind:"sweep" ~shards:2 ~index:1 ~policies:policy_names keys in
  Alcotest.(check bool) "sibling shard compatible" true (Shard.compatible m ok = Ok ());
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) what true
        (match Shard.compatible m other with Ok () -> false | Error _ -> true))
    [
      ("different grid rejected",
       Shard.make ~kind:"sweep" ~shards:2 ~index:1 ~policies:policy_names [ "k0"; "k1" ]);
      ("different shard count rejected",
       Shard.make ~kind:"sweep" ~shards:3 ~index:1 ~policies:policy_names keys);
      ("different policies rejected",
       Shard.make ~kind:"sweep" ~shards:2 ~index:1 ~policies:[ "maxcard" ] keys);
      ("different kind rejected",
       Shard.make ~kind:"grid" ~shards:2 ~index:1 ~policies:policy_names keys);
    ]

(* --- leases --- *)

let write_foreign_lease ~dir ~name holder =
  let path = Filename.concat dir (name ^ ".lease") in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("owner", Json.Str holder.Lease.owner);
                ("host", Json.Str holder.Lease.host);
                ("pid", Json.Int holder.Lease.pid);
                ("acquired_at", Json.Float holder.Lease.acquired_at);
                ("refreshed_at", Json.Float holder.Lease.refreshed_at);
              ]));
      Out_channel.output_char oc '\n')

let foreign_holder ?(host = "elsewhere") ?(pid = 1) ?age () =
  let now = Unix.gettimeofday () in
  let refreshed_at = match age with None -> now | Some a -> now -. a in
  {
    Lease.owner = Printf.sprintf "%s:%d" host pid;
    host;
    pid;
    acquired_at = refreshed_at;
    refreshed_at;
  }

(* A pid that is guaranteed dead on this host: fork a child that exits
   immediately and reap it. *)
let dead_pid () =
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
      ignore (Unix.waitpid [] pid);
      pid

let test_lease_acquire_and_release () =
  with_temp_dir @@ fun dir ->
  (match Lease.acquire ~dir ~name:"s0" () with
  | Error _ -> Alcotest.fail "fresh acquire must succeed"
  | Ok { lease; taken_over_from } ->
      Alcotest.(check bool) "fresh claim displaces nobody" true (taken_over_from = None);
      Alcotest.(check bool) "lease file visible" true
        (Lease.read ~dir ~name:"s0" <> None);
      Lease.refresh lease;
      Lease.release lease);
  Alcotest.(check bool) "released lease is gone" true (Lease.read ~dir ~name:"s0" = None)

let test_lease_live_holder_blocks () =
  with_temp_dir @@ fun dir ->
  (* A recent heartbeat from another host: not stale, claim must lose. *)
  write_foreign_lease ~dir ~name:"s0" (foreign_holder ());
  match Lease.acquire ~dir ~name:"s0" ~ttl:60. () with
  | Ok _ -> Alcotest.fail "must not displace a live holder"
  | Error incumbent -> Alcotest.(check string) "incumbent reported" "elsewhere:1" incumbent.Lease.owner

let test_lease_takeover_dead_pid () =
  with_temp_dir @@ fun dir ->
  let corpse = foreign_holder ~host:(Unix.gethostname ()) ~pid:(dead_pid ()) () in
  write_foreign_lease ~dir ~name:"s0" corpse;
  (* Heartbeat is fresh, but the same-host pid is dead: stale immediately. *)
  match Lease.acquire ~dir ~name:"s0" ~ttl:3600. () with
  | Error _ -> Alcotest.fail "dead same-host pid must be reclaimable"
  | Ok { lease; taken_over_from } ->
      (match taken_over_from with
      | Some h -> Alcotest.(check string) "displaced the corpse" corpse.Lease.owner h.Lease.owner
      | None -> Alcotest.fail "takeover must report the displaced holder");
      Lease.release lease

let test_lease_takeover_expired_ttl () =
  with_temp_dir @@ fun dir ->
  write_foreign_lease ~dir ~name:"s0" (foreign_holder ~age:120. ());
  match Lease.acquire ~dir ~name:"s0" ~ttl:60. () with
  | Error _ -> Alcotest.fail "expired heartbeat must be reclaimable"
  | Ok { taken_over_from; lease } ->
      Alcotest.(check bool) "takeover reported" true (taken_over_from <> None);
      Lease.release lease

let test_lease_refresh_detects_theft () =
  with_temp_dir @@ fun dir ->
  match Lease.acquire ~dir ~name:"s0" () with
  | Error _ -> Alcotest.fail "fresh acquire must succeed"
  | Ok { lease; _ } ->
      (* Another worker judged us dead and overwrote the lease. *)
      write_foreign_lease ~dir ~name:"s0" (foreign_holder ());
      Alcotest.(check bool) "refresh raises Lost" true
        (match Lease.refresh lease with
        | () -> false
        | exception Lease.Lost _ -> true);
      (* Release must not clobber the thief either. *)
      Lease.release lease;
      Alcotest.(check bool) "thief's lease survives our release" true
        (Lease.read ~dir ~name:"s0" <> None)

(* --- merge --- *)

let test_merge_equals_single_box () =
  with_temp_dir @@ fun dir ->
  let reference = Experiment.run ~policies ~jobs:1 sweep_cells in
  let shards = 3 in
  for index = 0 to shards - 1 do
    run_shard ~dir ~shards ~index sweep_cells
  done;
  match Merge.sweep ~dir ~policies:policy_names sweep_cells with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok (results, report) ->
      Alcotest.(check int) "all cells found" (List.length sweep_cells) report.Merge.found_cells;
      Alcotest.(check (list int)) "all shards present" [ 0; 1; 2 ] report.Merge.manifests_present;
      Alcotest.(check bool) "no missing cells" true (report.Merge.missing = []);
      Alcotest.(check string) "merged artifact = single-box artifact"
        (artifact reference) (artifact results)

let test_merge_reports_missing_shard () =
  with_temp_dir @@ fun dir ->
  let shards = 3 in
  run_shard ~dir ~shards ~index:0 sweep_cells;
  run_shard ~dir ~shards ~index:2 sweep_cells;
  match Merge.sweep ~dir ~policies:policy_names sweep_cells with
  | Error e -> Alcotest.failf "partial merge should report, not fail: %s" e
  | Ok (results, report) ->
      let expected_missing =
        List.filteri (fun i _ -> Shard.owner_of ~shards i = 1) sweep_cells |> List.length
      in
      Alcotest.(check int) "missing = shard 1's cells" expected_missing
        (List.length report.Merge.missing);
      List.iter
        (fun (_, owner) -> Alcotest.(check int) "owner named" 1 owner)
        report.Merge.missing;
      Alcotest.(check int) "found the rest"
        (List.length sweep_cells - expected_missing)
        (List.length results)

let test_merge_rejects_foreign_grid () =
  with_temp_dir @@ fun dir ->
  run_shard ~dir ~shards:2 ~index:0 sweep_cells;
  run_shard ~dir ~shards:2 ~index:1 sweep_cells;
  (* Merge against a different grid (one cell fewer): fingerprint mismatch. *)
  match Merge.sweep ~dir ~policies:policy_names (List.tl sweep_cells) with
  | Ok _ -> Alcotest.fail "foreign grid must be rejected"
  | Error e -> Alcotest.(check bool) "names the grid mismatch" true (contains e "grid")

let test_merge_rejects_conflicting_duplicate () =
  with_temp_dir @@ fun dir ->
  let shards = 2 in
  run_shard ~dir ~shards ~index:0 sweep_cells;
  run_shard ~dir ~shards ~index:1 sweep_cells;
  (* Forge a duplicate of a shard-0 cell into shard 1's checkpoint with a
     tampered flow count — valid CRC, valid decode, different bytes.  The
     determinism audit must refuse the merge. *)
  let path0 = Filename.concat dir (Shard.checkpoint_name ~shards ~index:0) in
  let path1 = Filename.concat dir (Shard.checkpoint_name ~shards ~index:1) in
  let entry = List.hd (Checkpoint.read_entries ~path:path0) in
  let tampered =
    match entry.Checkpoint.result with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "flows", Json.Int n -> (k, Json.Int (n + 1))
               | _ -> (k, v))
             fields)
    | _ -> Alcotest.fail "sweep result must be an object"
  in
  let line = Checkpoint.seal ~key:entry.Checkpoint.key tampered in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path1 (fun oc ->
      Out_channel.output_string oc (line ^ "\n"));
  (match Merge.sweep ~dir ~policies:policy_names sweep_cells with
  | Ok _ -> Alcotest.fail "conflicting duplicate must refuse to merge"
  | Error e -> Alcotest.(check bool) "names the determinism violation" true
        (contains e "determinism"));
  (* The same duplicate with identical bytes is fine — and audited. *)
  let clean = Checkpoint.seal ~key:entry.Checkpoint.key entry.Checkpoint.result in
  let lines = In_channel.with_open_bin path1 In_channel.input_lines in
  let keep = List.filter (fun l -> l <> line) lines in
  Out_channel.with_open_bin path1 (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) (keep @ [ clean ]));
  match Merge.sweep ~dir ~policies:policy_names sweep_cells with
  | Error e -> Alcotest.failf "byte-equal duplicate must merge: %s" e
  | Ok (_, report) -> Alcotest.(check int) "duplicate audited" 1 report.Merge.duplicate_cells

(* A shard entry re-sealed under its own key with one identity field
   rewritten: valid CRC, a key of the grid, and a payload that claims to be
   another cell.  The merge must refuse it, whichever identity field lies. *)
let test_merge_rejects_spliced_entry () =
  List.iter
    (fun (name, value) ->
      with_temp_dir @@ fun dir ->
      let shards = 2 in
      run_shard ~dir ~shards ~index:0 sweep_cells;
      run_shard ~dir ~shards ~index:1 sweep_cells;
      let path = Filename.concat dir (Shard.checkpoint_name ~shards ~index:0) in
      let splice (e : Checkpoint.entry) =
        match e.Checkpoint.result with
        | Json.Obj fields ->
            Checkpoint.seal ~key:e.Checkpoint.key
              (Json.Obj (List.map (fun (k, v) -> if k = name then (k, value) else (k, v)) fields))
        | _ -> Alcotest.fail "a result is an object"
      in
      let lines =
        match Checkpoint.read_entries ~path with
        | first :: rest ->
            splice first
            :: List.map (fun (e : Checkpoint.entry) -> Checkpoint.seal ~key:e.Checkpoint.key e.Checkpoint.result) rest
        | [] -> Alcotest.fail "shard 0 checkpointed nothing"
      in
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      match Merge.sweep ~dir ~policies:policy_names sweep_cells with
      | Ok _ -> Alcotest.failf "a result spliced with %s must refuse to merge" name
      | Error e -> Alcotest.(check bool) (name ^ ": names the undecodable entry") true
            (contains e "does not decode"))
    [ ("rate", Json.Float 5.0); ("max_demand", Json.Int 9) ]

(* --- kill a worker mid-shard, take over its lease, resume, merge --- *)

let test_takeover_after_kill () =
  with_temp_dir @@ fun dir ->
  let shards = 2 in
  let reference = Experiment.run ~policies ~jobs:1 sweep_cells in
  let all_keys = List.map Checkpoint.key sweep_cells in
  let mine = Shard.plan ~shards ~index:0 sweep_cells in
  let ckpt_path = Filename.concat dir (Shard.checkpoint_name ~shards ~index:0) in
  flush stdout;
  flush stderr;
  (match Unix.fork () with
  | 0 ->
      (* The doomed worker: claim the lease, plod through shard 0. *)
      (try
         match Lease.acquire ~dir ~name:(Shard.file_stem ~shards ~index:0) () with
         | Error _ -> ()
         | Ok { lease; _ } ->
             ignore
               (Shard.write_manifest ~dir
                  (Shard.make ~kind:"sweep" ~shards ~index:0 ~policies:policy_names all_keys));
             let ck = Checkpoint.open_ ~path:ckpt_path ~resume:true in
             ignore
               (Checkpoint.run ~policies ~jobs:1
                  ~on_append:(fun _ -> Lease.refresh lease)
                  ck mine);
             Checkpoint.close ck;
             Lease.release lease
       with _ -> ());
      Unix._exit 0
  | pid ->
      (* SIGKILL the worker once at least one cell is durable: a real crash,
         lease left in place. *)
      let count_lines () =
        match In_channel.with_open_bin ckpt_path In_channel.input_lines with
        | lines -> List.length lines
        | exception Sys_error _ -> 0
      in
      let deadline = Unix.gettimeofday () +. 30. in
      let reaped = ref false in
      let rec wait () =
        if count_lines () >= 1 || Unix.gettimeofday () > deadline then ()
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.sleepf 0.002;
              wait ()
          | _ -> reaped := true
      in
      wait ();
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end);
  (* The takeover worker: the dead worker's lease must read as stale (dead
     same-host pid) despite a fresh heartbeat and a generous ttl. *)
  (match Lease.acquire ~dir ~name:(Shard.file_stem ~shards ~index:0) ~ttl:3600. () with
  | Error h -> Alcotest.failf "dead worker's lease not reclaimable (held by %s)" h.Lease.owner
  | Ok { lease; _ } ->
      ignore
        (Shard.write_manifest ~dir
           (Shard.make ~kind:"sweep" ~shards ~index:0 ~policies:policy_names all_keys));
      let ck = Checkpoint.open_ ~path:ckpt_path ~resume:true in
      Alcotest.(check bool) "dead worker's prefix survives" true
        (Checkpoint.loaded ck <= List.length mine);
      ignore
        (Checkpoint.run ~policies ~jobs:1
           ~on_append:(fun _ -> Lease.refresh lease)
           ck mine);
      Checkpoint.close ck;
      Lease.release lease);
  (* Shard 1 runs normally; the merged artifact must match the clean run. *)
  run_shard ~dir ~shards ~index:1 sweep_cells;
  match Merge.sweep ~dir ~policies:policy_names sweep_cells with
  | Error e -> Alcotest.failf "merge after takeover failed: %s" e
  | Ok (results, report) ->
      Alcotest.(check bool) "nothing missing" true (report.Merge.missing = []);
      Alcotest.(check string) "kill + takeover + merge = uninterrupted single box"
        (artifact reference) (artifact results)

(* --- property: any shard count merges to the unsharded run --- *)

let property_cells = grid ~kinds:[ "poisson" ] ~m:3 ~rounds:[ 3 ] ~seeds:[ 1; 2; 3; 4; 5 ]

let property_reference =
  lazy (artifact (Experiment.run ~policies ~jobs:1 property_cells))

let prop_merge_any_shard_count =
  QCheck2.Test.make ~name:"merge over any shard count = unsharded run" ~count:8
    QCheck2.Gen.(int_range 1 6)
    (fun shards ->
      with_temp_dir @@ fun dir ->
      for index = 0 to shards - 1 do
        run_shard ~dir ~shards ~index property_cells
      done;
      match Merge.sweep ~dir ~policies:policy_names property_cells with
      | Error e -> QCheck2.Test.fail_reportf "merge failed with %d shards: %s" shards e
      | Ok (results, report) ->
          report.Merge.missing = [] && artifact results = Lazy.force property_reference)

let () =
  Alcotest.run "flowsched_dist"
    [
      ( "shard",
        [
          Alcotest.test_case "plan partitions the grid" `Quick test_plan_partitions;
          Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "manifest compatibility" `Quick test_manifest_compatibility;
        ] );
      ( "lease",
        [
          Alcotest.test_case "acquire and release" `Quick test_lease_acquire_and_release;
          Alcotest.test_case "live holder blocks" `Quick test_lease_live_holder_blocks;
          Alcotest.test_case "takeover of dead pid" `Quick test_lease_takeover_dead_pid;
          Alcotest.test_case "takeover of expired ttl" `Quick test_lease_takeover_expired_ttl;
          Alcotest.test_case "refresh detects theft" `Quick test_lease_refresh_detects_theft;
        ] );
      ( "merge",
        [
          Alcotest.test_case "equals single box" `Quick test_merge_equals_single_box;
          Alcotest.test_case "reports missing shard" `Quick test_merge_reports_missing_shard;
          Alcotest.test_case "rejects foreign grid" `Quick test_merge_rejects_foreign_grid;
          Alcotest.test_case "rejects conflicting duplicate" `Quick
            test_merge_rejects_conflicting_duplicate;
          Alcotest.test_case "rejects spliced entry" `Quick test_merge_rejects_spliced_entry;
        ] );
      ( "takeover", [ Alcotest.test_case "kill then takeover" `Slow test_takeover_after_kill ] );
      ( "properties", List.map QCheck_alcotest.to_alcotest [ prop_merge_any_shard_count ] );
    ]
