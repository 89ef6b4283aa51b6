(* Tests for the flowsched_exec worker pool: deterministic parallel/sequential
   equivalence, retry-then-Failed semantics for raising and crashing workers,
   timeout kills that do not wedge the pool, and zombie-free shutdown. *)

open Flowsched_exec

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec go i = i + k <= n && (String.sub haystack i k = needle || go (i + 1)) in
  go 0

let no_zombies_left () =
  (* The pool waitpids every child it forks; once a run returns, this
     process must have no children at all (the test binary forks nothing
     else), so waitpid(-1) raises ECHILD. *)
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let results_exn outcomes =
  Array.map
    (function
      | Pool.Done v -> v
      | Pool.Failed { reason; _ } -> Alcotest.failf "unexpected Failed: %s" reason)
    outcomes

(* A job whose result depends on its payload through enough computation that
   an ordering bug would scramble it. *)
let hash_job x =
  let g = Flowsched_util.Prng.create x in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := (!acc * 31) + Flowsched_util.Prng.int g 1000
  done;
  (x, !acc land 0xFFFF)

let test_inline_map () =
  let outcomes = Pool.map ~jobs:1 ~f:(fun x -> x * x) [| 1; 2; 3; 4 |] in
  Alcotest.(check (array int)) "squares" [| 1; 4; 9; 16 |] (results_exn outcomes)

let test_empty_input () =
  Alcotest.(check int) "no jobs" 0 (Array.length (Pool.map ~jobs:4 ~f:(fun x -> x) [||]))

let test_parallel_matches_sequential () =
  let inputs = Array.init 40 (fun i -> i + 1) in
  let seq = results_exn (Pool.map ~jobs:1 ~f:hash_job inputs) in
  let par = results_exn (Pool.map ~jobs:4 ~f:hash_job inputs) in
  Alcotest.(check (array (pair int int))) "byte-identical merge order" seq par;
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_random_reseeded_per_job () =
  (* Jobs that consult the global Random state must see a per-job
     deterministic stream regardless of worker assignment or order. *)
  let f _ = Random.int 1_000_000 in
  let inputs = Array.init 16 (fun i -> i) in
  let seq = results_exn (Pool.map ~jobs:1 ~f inputs) in
  let par = results_exn (Pool.map ~jobs:4 ~f inputs) in
  Alcotest.(check (array int)) "same Random draws" seq par

let test_raise_retried_then_failed () =
  let events = ref [] in
  let outcomes =
    Pool.map ~jobs:2 ~retries:2
      ~progress:(fun e -> events := e :: !events)
      ~f:(fun _ -> failwith "boom")
      [| 0 |]
  in
  (match outcomes.(0) with
  | Pool.Failed { attempts; reason } ->
      Alcotest.(check int) "attempts = retries + 1" 3 attempts;
      Alcotest.(check bool) "reason mentions the exception" true (contains reason "boom")
  | Pool.Done _ -> Alcotest.fail "job should have failed");
  let retried =
    List.length (List.filter (function Pool.Job_retried _ -> true | _ -> false) !events)
  in
  Alcotest.(check int) "two retry events" 2 retried;
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_retry_recovers () =
  (* First attempt leaves a marker on disk and raises; the retry (possibly
     in a different worker process) sees the marker and succeeds. *)
  let marker = Filename.temp_file "flowsched_exec_retry" ".flag" in
  Sys.remove marker;
  let f _ =
    if Sys.file_exists marker then 42
    else begin
      Out_channel.with_open_bin marker (fun oc -> Out_channel.output_string oc "x");
      failwith "first attempt fails"
    end
  in
  let outcomes = Pool.map ~jobs:2 ~retries:1 ~f [| 0 |] in
  if Sys.file_exists marker then Sys.remove marker;
  (match outcomes.(0) with
  | Pool.Done v -> Alcotest.(check int) "recovered on retry" 42 v
  | Pool.Failed { reason; _ } -> Alcotest.failf "should have recovered: %s" reason);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_worker_crash_is_failure () =
  (* Hard crash (the worker process exits without replying): the pool must
     detect the lost connection, burn the retry budget, and report Failed
     without wedging the other job. *)
  let f x = if x = 0 then Unix._exit 7 else x * 10 in
  let outcomes = Pool.map ~jobs:2 ~retries:1 ~f [| 0; 1 |] in
  (match outcomes.(0) with
  | Pool.Failed { attempts; _ } -> Alcotest.(check int) "crash attempts" 2 attempts
  | Pool.Done _ -> Alcotest.fail "crashing job should fail");
  (match outcomes.(1) with
  | Pool.Done v -> Alcotest.(check int) "sibling job survives" 10 v
  | Pool.Failed { reason; _ } -> Alcotest.failf "sibling job failed: %s" reason);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_timeout_kills_hung_worker () =
  let t0 = Unix.gettimeofday () in
  let f x = if x = 0 then (Unix.sleep 600; 0) else x in
  let outcomes = Pool.map ~jobs:2 ~retries:0 ~timeout:0.5 ~f [| 0; 1 |] in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcomes.(0) with
  | Pool.Failed { attempts; reason } ->
      Alcotest.(check int) "single attempt" 1 attempts;
      Alcotest.(check bool) "reason mentions timeout" true (contains reason "timed out")
  | Pool.Done _ -> Alcotest.fail "hung job should time out");
  (match outcomes.(1) with
  | Pool.Done v -> Alcotest.(check int) "fast job unaffected" 1 v
  | Pool.Failed { reason; _ } -> Alcotest.failf "fast job failed: %s" reason);
  Alcotest.(check bool) "pool returned promptly, not after the sleep" true (elapsed < 60.);
  Alcotest.(check bool) "no zombies" true (no_zombies_left ())

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

(* --- resilience layer --- *)

module Metrics = Flowsched_obs.Metrics

let test_zero_retries_single_attempt () =
  let outcomes = Pool.map ~jobs:2 ~retries:0 ~f:(fun _ -> failwith "no") [| 0 |] in
  match outcomes.(0) with
  | Pool.Failed { attempts; _ } -> Alcotest.(check int) "attempts = retries + 1" 1 attempts
  | Pool.Done _ -> Alcotest.fail "job should have failed"

(* A job function that fails its first attempt and succeeds on the next,
   using an on-disk marker so the behaviour survives the fork boundary. *)
let fail_once_job () =
  let marker = Filename.temp_file "flowsched_exec_failonce" ".flag" in
  Sys.remove marker;
  let f _ =
    if Sys.file_exists marker then 42
    else begin
      Out_channel.with_open_bin marker (fun oc -> Out_channel.output_string oc "x");
      failwith "transient"
    end
  in
  let cleanup () = if Sys.file_exists marker then Sys.remove marker in
  (f, cleanup)

let test_per_job_event_sequence () =
  (* The documented lifecycle: Started 1; (Retried k; Started k+1)*; Done. *)
  let f, cleanup = fail_once_job () in
  let events = ref [] in
  let outcomes =
    Pool.map ~jobs:2 ~retries:2 ~progress:(fun e -> events := e :: !events) ~f [| 0 |]
  in
  cleanup ();
  (match outcomes.(0) with
  | Pool.Done v -> Alcotest.(check int) "recovered" 42 v
  | Pool.Failed { reason; _ } -> Alcotest.failf "should have recovered: %s" reason);
  let shape =
    List.rev_map
      (function
        | Pool.Job_started { attempt; _ } -> Printf.sprintf "started%d" attempt
        | Pool.Job_done { attempt; _ } -> Printf.sprintf "done%d" attempt
        | Pool.Job_retried { attempt; _ } -> Printf.sprintf "retried%d" attempt
        | Pool.Job_failed _ -> "failed")
      !events
  in
  Alcotest.(check (list string)) "event sequence"
    [ "started1"; "retried1"; "started2"; "done2" ]
    shape

let test_metrics_absorbed_from_failed_attempts () =
  (* Every attempt increments a counter inside the worker; the increment
     must reach the parent registry via the result-frame diff even when the
     attempt returns a failure. *)
  let c = Metrics.counter "test.pool_absorb" in
  let f, cleanup = fail_once_job () in
  let before = Metrics.counter_value c in
  let outcomes =
    Pool.map ~jobs:2 ~retries:1
      ~f:(fun x ->
        Metrics.incr c;
        f x)
      [| 0 |]
  in
  cleanup ();
  (match outcomes.(0) with
  | Pool.Done _ -> ()
  | Pool.Failed { reason; _ } -> Alcotest.failf "should have recovered: %s" reason);
  Alcotest.(check int) "both attempts' increments absorbed" (before + 2)
    (Metrics.counter_value c)

let test_inline_posthoc_timeout () =
  (* jobs:1 cannot interrupt a running attempt, but an over-budget result
     must still be discarded and counted as a timeout. *)
  let outcomes =
    Pool.map ~jobs:1 ~retries:0 ~timeout:0.05
      ~f:(fun x ->
        Unix.sleepf 0.12;
        x)
      [| 7 |]
  in
  match outcomes.(0) with
  | Pool.Failed { attempts; reason } ->
      Alcotest.(check int) "single attempt" 1 attempts;
      Alcotest.(check bool) "reason mentions timeout" true (contains reason "timed out")
  | Pool.Done _ -> Alcotest.fail "over-budget inline attempt must not be accepted"

let test_on_result_fires_once_per_job () =
  let seen = Hashtbl.create 8 in
  let outcomes =
    Pool.map ~jobs:3
      ~on_result:(fun job outcome ->
        Alcotest.(check bool) "no duplicate on_result" false (Hashtbl.mem seen job);
        Hashtbl.replace seen job outcome)
      ~f:hash_job
      (Array.init 10 (fun i -> i))
  in
  Alcotest.(check int) "one callback per job" 10 (Hashtbl.length seen);
  Array.iteri
    (fun job outcome ->
      Alcotest.(check bool) "callback saw the merged outcome" true
        (Hashtbl.find seen job = outcome))
    outcomes

let () =
  Alcotest.run "flowsched_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "inline map" `Quick test_inline_map;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "per-job Random reseed" `Quick test_random_reseeded_per_job;
          Alcotest.test_case "raise retried then Failed" `Quick test_raise_retried_then_failed;
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "worker crash is Failed" `Quick test_worker_crash_is_failure;
          Alcotest.test_case "timeout kills hung worker" `Slow test_timeout_kills_hung_worker;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "zero retries = one attempt" `Quick
            test_zero_retries_single_attempt;
          Alcotest.test_case "per-job event sequence" `Quick test_per_job_event_sequence;
          Alcotest.test_case "metrics absorbed from failed attempts" `Quick
            test_metrics_absorbed_from_failed_attempts;
          Alcotest.test_case "inline post-hoc timeout" `Quick test_inline_posthoc_timeout;
          Alcotest.test_case "on_result once per job" `Quick test_on_result_fires_once_per_job;
        ] );
    ]
