(* Chaos harness for the resilience layer: deterministic fault plans driven
   through the pool must either converge to the byte-identical fault-free
   output (given retry budget) or fail deterministically; checkpointed runs
   killed mid-flight must resume to the same artifact. *)

module Pool = Flowsched_exec.Pool
module Faults = Flowsched_exec.Faults
module Metrics = Flowsched_obs.Metrics
module Experiment = Flowsched_sim.Experiment
module Report = Flowsched_sim.Report
module Checkpoint = Flowsched_sim.Checkpoint
module Json = Flowsched_util.Json
module Heuristics = Flowsched_online.Heuristics

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec go i = i + k <= n && (String.sub haystack i k = needle || go (i + 1)) in
  go 0

let no_zombies_left () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let hash_job x =
  let g = Flowsched_util.Prng.create x in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := (!acc * 31) + Flowsched_util.Prng.int g 1000
  done;
  (x, !acc land 0xFFFF)

(* --- pool-level chaos --- *)

let injected_total () =
  List.fold_left
    (fun acc name -> acc + Metrics.counter_value (Metrics.counter name))
    0
    [
      "faults.injected_crash";
      "faults.injected_hang";
      "faults.injected_raise";
      "faults.injected_corrupt";
    ]

let test_chaos_converges_to_fault_free () =
  let inputs = Array.init 24 (fun i -> i) in
  let reference = Pool.map ~jobs:1 ~f:hash_job inputs in
  let injected_before = injected_total () in
  List.iter
    (fun seed ->
      let faults = Faults.make ~crash:0.15 ~raise_:0.2 ~corrupt:0.15 ~seed () in
      let chaotic = Pool.map ~jobs:3 ~retries:12 ~faults ~f:hash_job inputs in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: chaos run identical to fault-free" seed)
        true (reference = chaotic))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "faults were actually injected" true
    (injected_total () > injected_before);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_hang_recovered_by_timeout () =
  (* Find (purely, so the test stays deterministic) a plan that hangs
     attempt 1 of job 0 but leaves attempt 2 clean; the timeout must kill
     the hung worker and the retry must succeed. *)
  let rec find seed =
    let p = Faults.make ~hang:0.5 ~seed () in
    if
      Faults.decide p ~job:0 ~attempt:1 = Some Faults.Hang
      && Faults.decide p ~job:0 ~attempt:2 = None
    then p
    else find (seed + 1)
  in
  let plan = find 0 in
  let t0 = Unix.gettimeofday () in
  let outcomes = Pool.map ~jobs:2 ~retries:1 ~timeout:0.5 ~faults:plan ~f:(fun x -> x + 1) [| 0 |] in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcomes.(0) with
  | Pool.Done v -> Alcotest.(check int) "recovered after hang" 1 v
  | Pool.Failed { reason; _ } -> Alcotest.failf "should have recovered: %s" reason);
  Alcotest.(check bool) "did not wait for the hang to finish" true (elapsed < 30.);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_always_raise_fails_deterministically () =
  let plan = Faults.make ~raise_:1.0 ~seed:9 () in
  let run jobs = Pool.map ~jobs ~retries:2 ~faults:plan ~f:(fun x -> x) [| 0; 1 |] in
  let forked = run 2 in
  Array.iteri
    (fun job outcome ->
      match outcome with
      | Pool.Failed { attempts; reason } ->
          Alcotest.(check int) "attempts = retries + 1" 3 attempts;
          Alcotest.(check string) "deterministic last reason"
            (Faults.reason Faults.Raise ~job ~attempt:3)
            reason
      | Pool.Done _ -> Alcotest.fail "raise-everything plan must fail")
    forked;
  Alcotest.(check bool) "inline and forked outcomes identical" true (run 1 = forked);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_corrupt_frames_never_wedge () =
  let c = Metrics.counter "pool.frames_corrupt" in
  let before = Metrics.counter_value c in
  let plan = Faults.make ~corrupt:1.0 ~seed:4 () in
  let outcomes = Pool.map ~jobs:2 ~retries:1 ~faults:plan ~f:(fun x -> x * 3) [| 0; 1; 2 |] in
  Array.iter
    (fun outcome ->
      match outcome with
      | Pool.Failed { attempts; reason } ->
          Alcotest.(check int) "both attempts burned" 2 attempts;
          Alcotest.(check bool) "reason mentions corruption" true (contains reason "corrupt")
      | Pool.Done _ -> Alcotest.fail "corrupt frames must never be accepted")
    outcomes;
  Alcotest.(check int) "every corrupt frame counted" (before + 6) (Metrics.counter_value c);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

(* --- checkpoint/resume --- *)

let policies = [ Heuristics.maxcard; Heuristics.maxweight ]

let sweep_cells =
  Result.get_ok
    (Experiment.grid ~kinds:[ "poisson"; "uniform" ] ~modes:[ Flowsched_sim.Matrix.Flows ] ~m:4
       ~rates:[ 2.0 ] ~rounds:[ 4 ] ~max_demand:2 ~seeds:[ 1; 2 ] ~lp:true)

let strip_wall = Experiment.strip_timing

(* The byte-identity oracle: the artifact with its (legitimately
   nondeterministic) timing fields zeroed. *)
let artifact results = Json.to_string (Report.sweep_json (List.map strip_wall results))

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)

let with_temp_checkpoint f =
  let path = Filename.temp_file "flowsched_chaos_ckpt" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_checkpoint_prefix_resume () =
  with_temp_checkpoint @@ fun path ->
  let reference = Experiment.run ~policies ~jobs:1 sweep_cells in
  let ck = Checkpoint.open_ ~path ~resume:false in
  let full = Checkpoint.run ~policies ~jobs:2 ck sweep_cells in
  Checkpoint.close ck;
  Alcotest.(check bool) "checkpointed run matches plain run" true
    (artifact reference = artifact full);
  let lines = read_lines path in
  Alcotest.(check int) "one line per cell" (List.length sweep_cells) (List.length lines);
  (* Keep only the first two lines, as if the run died at 2/4.  Lines land
     in completion order, so these can be any two of the four cells. *)
  let kept = List.filteri (fun i _ -> i < 2) lines in
  write_lines path kept;
  let kept_keys =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok j -> Option.get (Option.bind (Json.member "key" j) Json.to_string_opt)
        | Error e -> Alcotest.failf "checkpoint line does not parse: %s" e)
      kept
  in
  let ck = Checkpoint.open_ ~path ~resume:true in
  Alcotest.(check int) "two cells recovered" 2 (Checkpoint.loaded ck);
  let resumed = Checkpoint.run ~policies ~jobs:2 ck sweep_cells in
  Checkpoint.close ck;
  Alcotest.(check bool) "resumed artifact byte-identical" true
    (artifact reference = artifact resumed);
  (* Recovered cells must be byte-identical unstripped too — they carry the
     original run's wall-clock readings through decode . encode. *)
  List.iter2
    (fun cell (orig, res) ->
      if List.mem (Checkpoint.key cell) kept_keys then
        Alcotest.(check string)
          (Printf.sprintf "cell %s preserved exactly" (Checkpoint.key cell))
          (Json.to_string (Checkpoint.encode orig))
          (Json.to_string (Checkpoint.encode res)))
    sweep_cells (List.combine full resumed)

let test_checkpoint_under_chaos_matches_fault_free () =
  with_temp_checkpoint @@ fun path ->
  let reference = Experiment.run ~policies ~jobs:1 sweep_cells in
  let ck = Checkpoint.open_ ~path ~resume:false in
  let chaotic =
    Checkpoint.run ~policies ~jobs:2 ~retries:10 ~timeout:5.
      ~faults:(Faults.chaos ~seed:5) ck sweep_cells
  in
  Checkpoint.close ck;
  Alcotest.(check bool) "chaos sweep converges to fault-free artifact" true
    (artifact reference = artifact chaotic);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_checkpoint_partial_tail_tolerated () =
  with_temp_checkpoint @@ fun path ->
  let ck = Checkpoint.open_ ~path ~resume:false in
  let full = Checkpoint.run ~policies ~jobs:1 ck sweep_cells in
  Checkpoint.close ck;
  let lines = read_lines path in
  (* A writer killed mid-append leaves a truncated last line. *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc {|{"kind": "sweep", "key": "tr|});
  let ck = Checkpoint.open_ ~path ~resume:true in
  Alcotest.(check int) "all complete cells survive" (List.length lines) (Checkpoint.loaded ck);
  let resumed = Checkpoint.run ~policies ~jobs:1 ck sweep_cells in
  Checkpoint.close ck;
  Alcotest.(check bool) "nothing recomputed, artifact identical" true
    (artifact full = artifact resumed);
  Alcotest.(check bool) "partial tail rewritten away" true
    (read_lines path = lines)

let test_checkpoint_corrupt_middle_rejected () =
  with_temp_checkpoint @@ fun path ->
  let ck = Checkpoint.open_ ~path ~resume:false in
  ignore (Checkpoint.run ~policies ~jobs:1 ck sweep_cells);
  Checkpoint.close ck;
  (match read_lines path with
  | first :: rest when rest <> [] -> write_lines path (("garbage " ^ first) :: rest)
  | _ -> Alcotest.fail "expected at least two checkpoint lines");
  Alcotest.(check bool) "mid-file corruption raises" true
    (match Checkpoint.open_ ~path ~resume:true with
    | _ -> false
    | exception Failure _ -> true)

let test_checkpoint_stale_entry_rejected () =
  with_temp_checkpoint @@ fun path ->
  let ck = Checkpoint.open_ ~path ~resume:false in
  ignore (Checkpoint.run ~policies ~jobs:1 ck sweep_cells);
  Checkpoint.close ck;
  (* Splice cell 0's key onto cell 1's recorded result: the key matches a
     grid cell but the payload disagrees with its config (different seed) —
     resuming must refuse rather than silently serve the wrong numbers. *)
  let lines = read_lines path in
  let key_of line =
    match Json.parse line with
    | Ok j -> Option.get (Option.bind (Json.member "key" j) Json.to_string_opt)
    | Error e -> Alcotest.failf "checkpoint line does not parse: %s" e
  in
  (* Re-seal the forged entry so its CRC is valid: the splice must get past
     the integrity layer and be caught by the config check at decode. *)
  let forged =
    match (lines, Json.parse (List.nth lines 1)) with
    | first :: _, Ok j -> Checkpoint.seal ~key:(key_of first) (Option.get (Json.member "result" j))
    | _ -> Alcotest.fail "expected parsable checkpoint lines"
  in
  write_lines path [ forged ];
  let ck = Checkpoint.open_ ~path ~resume:true in
  Alcotest.(check int) "forged entry loads" 1 (Checkpoint.loaded ck);
  Alcotest.(check bool) "mismatched entry rejected at decode" true
    (match Checkpoint.run ~policies ~jobs:1 ck sweep_cells with
    | _ -> false
    | exception Failure _ -> true);
  Checkpoint.close ck

(* The result of a cell under its own key, with one identity field
   rewritten and the line re-sealed: a valid CRC under a key of the grid.
   Resuming must refuse it, whichever identity field lies. *)
let test_checkpoint_splice_rejected () =
  with_temp_checkpoint @@ fun path ->
  let ck = Checkpoint.open_ ~path ~resume:false in
  ignore (Checkpoint.run ~policies ~jobs:1 ck sweep_cells);
  Checkpoint.close ck;
  let entry = List.hd (Checkpoint.read_entries ~path) in
  List.iter
    (fun (name, value) ->
      let spliced =
        match entry.Checkpoint.result with
        | Json.Obj fields ->
            Json.Obj (List.map (fun (k, v) -> if k = name then (k, value) else (k, v)) fields)
        | _ -> Alcotest.fail "a result is an object"
      in
      write_lines path [ Checkpoint.seal ~key:entry.Checkpoint.key spliced ];
      let ck = Checkpoint.open_ ~path ~resume:true in
      Alcotest.(check int) (name ^ ": spliced entry loads") 1 (Checkpoint.loaded ck);
      Alcotest.(check bool) (name ^ ": spliced entry rejected at decode") true
        (match Checkpoint.run ~policies ~jobs:1 ck sweep_cells with
        | _ -> false
        | exception Failure _ -> true);
      Checkpoint.close ck)
    [ ("rate", Json.Float 5.0); ("max_demand", Json.Int 9) ]

let test_kill_then_resume () =
  with_temp_checkpoint @@ fun path ->
  Sys.remove path;
  let reference = Experiment.run ~policies ~jobs:1 sweep_cells in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* The doomed writer: plod through the grid, checkpointing each cell. *)
      (try
         let ck = Checkpoint.open_ ~path ~resume:false in
         ignore (Checkpoint.run ~policies ~jobs:1 ck sweep_cells);
         Checkpoint.close ck
       with _ -> ());
      Unix._exit 0
  | pid ->
      (* SIGKILL the writer as soon as at least one cell is durable (or let
         it finish — the resume contract must hold either way). *)
      let count_lines () = if Sys.file_exists path then List.length (read_lines path) else 0 in
      let deadline = Unix.gettimeofday () +. 60. in
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
      end;
      let ck = Checkpoint.open_ ~path ~resume:true in
      let survived = Checkpoint.loaded ck in
      Alcotest.(check bool) "survivors bounded by the grid" true
        (survived <= List.length sweep_cells);
      let resumed = Checkpoint.run ~policies ~jobs:1 ck sweep_cells in
      Checkpoint.close ck;
      Alcotest.(check bool)
        (Printf.sprintf "resume after kill (%d cells survived) equals uninterrupted" survived)
        true
        (artifact reference = artifact resumed);
      Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let () =
  Alcotest.run "flowsched_chaos"
    [
      ( "pool",
        [
          Alcotest.test_case "chaos converges to fault-free" `Slow
            test_chaos_converges_to_fault_free;
          Alcotest.test_case "hang recovered by timeout" `Slow test_hang_recovered_by_timeout;
          Alcotest.test_case "always-raise fails deterministically" `Quick
            test_always_raise_fails_deterministically;
          Alcotest.test_case "corrupt frames never wedge" `Quick
            test_corrupt_frames_never_wedge;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "prefix resume byte-identical" `Quick
            test_checkpoint_prefix_resume;
          Alcotest.test_case "chaos + checkpoint converges" `Slow
            test_checkpoint_under_chaos_matches_fault_free;
          Alcotest.test_case "partial tail tolerated" `Quick
            test_checkpoint_partial_tail_tolerated;
          Alcotest.test_case "corrupt middle rejected" `Quick
            test_checkpoint_corrupt_middle_rejected;
          Alcotest.test_case "stale entry rejected" `Quick test_checkpoint_stale_entry_rejected;
          Alcotest.test_case "spliced rate or max_demand rejected" `Quick
            test_checkpoint_splice_rejected;
          Alcotest.test_case "kill then resume" `Slow test_kill_then_resume;
        ] );
    ]
