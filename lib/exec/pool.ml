module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_jobs_done = Metrics.counter "pool.jobs_done"
let c_jobs_failed = Metrics.counter "pool.jobs_failed"
let c_retries = Metrics.counter "pool.retries"
let c_workers_spawned = Metrics.counter "pool.workers_spawned"
let c_worker_deaths = Metrics.counter "pool.worker_deaths"
let c_frames_corrupt = Metrics.counter "pool.frames_corrupt"
let g_backoff_seconds = Metrics.gauge "pool.backoff_seconds"
let h_job_seconds = Metrics.histogram "pool.job_seconds"

type 'b outcome =
  | Done of 'b
  | Failed of { attempts : int; reason : string }

type event =
  | Job_started of { job : int; attempt : int }
  | Job_done of { job : int; attempt : int; elapsed : float }
  | Job_retried of { job : int; attempt : int; reason : string }
  | Job_failed of { job : int; attempts : int; reason : string }

exception Interrupted

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Wire protocol: 8-byte header (4-byte big-endian length + 4-byte      *)
(* big-endian CRC-32 of the payload) + Marshal payload.                 *)
(* ------------------------------------------------------------------ *)

exception Worker_eof
exception Frame_corrupt

let rec restart f x = try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart f x

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let k = restart (fun () -> Unix.write fd bytes !off (len - !off)) () in
    off := !off + k
  done

let read_exact fd bytes off len =
  let got = ref 0 in
  while !got < len do
    let k = restart (fun () -> Unix.read fd bytes (off + !got) (len - !got)) () in
    if k = 0 then raise Worker_eof;
    got := !got + k
  done

let frame_header payload =
  let header = Bytes.create 8 in
  Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
  Bytes.set_int32_be header 4 (Int32.of_int (Flowsched_util.Crc.bytes payload));
  header

let write_frame fd v =
  let payload = Marshal.to_bytes v [ Marshal.Closures ] in
  write_all fd (frame_header payload);
  write_all fd payload

(* A deliberately damaged frame (fault injection): the checksum is taken
   over the real payload, then a byte is flipped, so the receiver's CRC
   check must reject it. *)
let write_corrupt_frame fd v =
  let payload = Marshal.to_bytes v [ Marshal.Closures ] in
  let header = frame_header payload in
  Bytes.set payload 0 (Char.chr (Char.code (Bytes.get payload 0) lxor 0xFF));
  write_all fd header;
  write_all fd payload

let read_frame fd =
  let header = Bytes.create 8 in
  read_exact fd header 0 8;
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  let crc = Int32.to_int (Bytes.get_int32_be header 4) land 0xFFFFFFFF in
  if len < 0 then raise Worker_eof;
  let payload = Bytes.create len in
  read_exact fd payload 0 len;
  if Flowsched_util.Crc.bytes payload <> crc then raise Frame_corrupt;
  Marshal.from_bytes payload 0

(* Parent -> worker messages.  The fault decision is made in the parent
   (it is a pure function of the plan and (job, attempt)) and shipped with
   the request, so workers stay plan-agnostic. *)
type 'a request =
  | Job of { job : int; attempt : int; seed : int; fault : Faults.kind option; payload : 'a }
  | Quit

(* ------------------------------------------------------------------ *)
(* Retry backoff: exponential in the attempt number with deterministic   *)
(* jitter drawn from (base_seed, job, attempt), capped at 60s.           *)
(* ------------------------------------------------------------------ *)

let backoff_delay ~backoff ~base_seed ~job ~attempt =
  if backoff <= 0. then 0.
  else begin
    let g =
      Flowsched_util.Prng.create (base_seed + (1_000_033 * job) + (104_729 * attempt))
    in
    let jitter = 0.5 +. Flowsched_util.Prng.float g in
    Float.min 60. (backoff *. Float.of_int (1 lsl min 20 (attempt - 1))) *. jitter
  end

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

type worker = {
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  mutable current : (int * int * float) option;  (* job, attempt, start time *)
}

let seed_for ~base_seed job = base_seed + (1000003 * (job + 1))

(* [others] lists the live workers whose inherited pipe ends the child must
   close, so that a worker's death is visible to the parent as EOF instead
   of being masked by write-end copies held by sibling workers. *)
let spawn ~f ~others =
  let job_r, job_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close job_w;
      Unix.close res_r;
      List.iter
        (fun w ->
          (try Unix.close w.to_w with Unix.Unix_error _ -> ());
          try Unix.close w.from_w with Unix.Unix_error _ -> ())
        others;
      (* The parent's graceful-shutdown handlers only set a parent-side
         flag; a worker inheriting them would silently swallow signals
         addressed to it, so restore the defaults. *)
      List.iter
        (fun s -> try ignore (Sys.signal s Sys.Signal_default) with Invalid_argument _ -> ())
        [ Sys.sigint; Sys.sigterm ];
      (* Spans die with the worker, so recording them is pure overhead;
         metrics instead travel back as per-job registry diffs in the
         result frames (the inherited pre-fork registry state cancels in
         the diff). *)
      Trace.stop ();
      let rec serve () =
        match (try read_frame job_r with Worker_eof | Frame_corrupt -> Quit) with
        | Quit -> ()
        | Job { job; attempt; seed; fault; payload } ->
            (match fault with
            | Some Faults.Crash -> Unix._exit 70
            | Some Faults.Hang ->
                while true do
                  Unix.sleep 3600
                done
            | _ -> ());
            Random.init seed;
            let before = Metrics.snapshot () in
            let result =
              match fault with
              | Some Faults.Raise -> Error (Faults.reason Faults.Raise ~job ~attempt)
              | _ -> ( try Ok (f payload) with e -> Error (Printexc.to_string e))
            in
            let frame = (job, result, Metrics.diff (Metrics.snapshot ()) before) in
            (match fault with
            | Some Faults.Corrupt -> write_corrupt_frame res_w frame
            | _ -> write_frame res_w frame);
            serve ()
      in
      (try serve () with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close job_r;
      Unix.close res_w;
      { pid; to_w = job_w; from_w = res_r; current = None }

let reap w =
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  try ignore (restart (fun () -> Unix.waitpid [] w.pid) ())
  with Unix.Unix_error _ -> ()

let kill_and_reap w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap w

(* ------------------------------------------------------------------ *)
(* Sequential fallback (jobs <= 1): same retry/backoff/fault semantics,  *)
(* no forking.  A timeout cannot interrupt [f] here (there is no worker  *)
(* to kill), but an attempt that comes back over budget is discarded and *)
(* counted as "timed out", matching worker semantics post hoc.           *)
(* ------------------------------------------------------------------ *)

let run_inline ~timeout ~retries ~base_seed ~backoff ~faults ~interrupted ~progress ~on_result
    ~f inputs =
  Array.mapi
    (fun job input ->
      let rec attempt k =
        if !interrupted then raise Interrupted;
        progress (Job_started { job; attempt = k });
        let fault =
          match faults with
          | None -> None
          | Some plan ->
              let d = Faults.decide plan ~job ~attempt:k in
              Option.iter Faults.note_injected d;
              d
        in
        let t0 = Unix.gettimeofday () in
        Random.init (seed_for ~base_seed job);
        let result =
          match fault with
          | Some kind -> Error (Faults.reason kind ~job ~attempt:k)
          | None -> ( match f input with v -> Ok v | exception e -> Error (Printexc.to_string e))
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        let result =
          (* Post-hoc wall-clock enforcement: inline mode cannot SIGKILL a
             slow attempt, but it must not *accept* one the forked pool
             would have killed. *)
          match (result, timeout) with
          | Ok _, Some t when elapsed >= t -> Error (Printf.sprintf "timed out after %.3gs" t)
          | _ -> result
        in
        match result with
        | Ok v ->
            Metrics.incr c_jobs_done;
            Metrics.observe h_job_seconds elapsed;
            progress (Job_done { job; attempt = k; elapsed });
            let outcome = Done v in
            on_result job outcome;
            outcome
        | Error reason ->
            if k <= retries then begin
              Metrics.incr c_retries;
              progress (Job_retried { job; attempt = k; reason });
              let delay = backoff_delay ~backoff ~base_seed ~job ~attempt:k in
              if delay > 0. then begin
                Metrics.add_gauge g_backoff_seconds delay;
                (try Unix.sleepf delay with Unix.Unix_error (Unix.EINTR, _, _) -> ())
              end;
              attempt (k + 1)
            end
            else begin
              Metrics.incr c_jobs_failed;
              progress (Job_failed { job; attempts = k; reason });
              let outcome = Failed { attempts = k; reason } in
              on_result job outcome;
              outcome
            end
      in
      attempt 1)
    inputs

(* ------------------------------------------------------------------ *)
(* Parallel dispatch loop                                              *)
(* ------------------------------------------------------------------ *)

let run_forked ~jobs ~timeout ~retries ~base_seed ~backoff ~faults ~interrupted ~progress
    ~on_result ~f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  let completed = ref 0 in
  let pending = Queue.create () in
  (* Retry attempts serving a backoff delay wait here as
     (ready_at, job, attempt), promoted into [pending] when due. *)
  let delayed = ref [] in
  for job = 0 to n - 1 do
    Queue.add (job, 1) pending
  done;
  let workers = ref [] in
  let have_work () = (not (Queue.is_empty pending)) || !delayed <> [] in
  let settle job attempt reason =
    if attempt <= retries then begin
      Metrics.incr c_retries;
      progress (Job_retried { job; attempt; reason });
      let delay = backoff_delay ~backoff ~base_seed ~job ~attempt in
      if delay > 0. then begin
        Metrics.add_gauge g_backoff_seconds delay;
        delayed := (Unix.gettimeofday () +. delay, job, attempt + 1) :: !delayed
      end
      else Queue.add (job, attempt + 1) pending
    end
    else begin
      Metrics.incr c_jobs_failed;
      progress (Job_failed { job; attempts = attempt; reason });
      let outcome = Failed { attempts = attempt; reason } in
      results.(job) <- Some outcome;
      incr completed;
      on_result job outcome
    end
  in
  let spawn_worker () =
    Metrics.incr c_workers_spawned;
    workers := spawn ~f ~others:!workers :: !workers
  in
  let retire w =
    workers := List.filter (fun w' -> w'.pid <> w.pid) !workers;
    kill_and_reap w
  in
  (* A dead worker's in-flight job goes back through the retry budget; the
     pool then refills itself if there is still work for the slot. *)
  let handle_dead w reason =
    Metrics.incr c_worker_deaths;
    (match w.current with
    | Some (job, attempt, _) -> settle job attempt reason
    | None -> ());
    retire w;
    if have_work () then spawn_worker ()
  in
  let dispatch w =
    let job, attempt = Queue.pop pending in
    let fault =
      match faults with
      | None -> None
      | Some plan ->
          let d = Faults.decide plan ~job ~attempt in
          Option.iter Faults.note_injected d;
          d
    in
    w.current <- Some (job, attempt, Unix.gettimeofday ());
    progress (Job_started { job; attempt });
    try
      write_frame w.to_w
        (Job { job; attempt; seed = seed_for ~base_seed job; fault; payload = inputs.(job) })
    with Worker_eof | Unix.Unix_error _ | Sys_error _ ->
      handle_dead w "worker crashed (pipe closed before dispatch)"
  in
  (* A signal must abort select/sleep promptly instead of being swallowed
     by the EINTR-restart wrapper. *)
  let rec select_interruptible fds tmo =
    if !interrupted then raise Interrupted;
    try Unix.select fds [] [] tmo
    with Unix.Unix_error (Unix.EINTR, _, _) ->
      if !interrupted then raise Interrupted else select_interruptible fds tmo
  in
  let previous_sigpipe =
    (* A worker dying between frames must surface as EPIPE, not kill us. *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun w ->
          (try write_frame w.to_w Quit with Worker_eof | Unix.Unix_error _ | Sys_error _ -> ());
          if w.current = None then reap w else kill_and_reap w)
        !workers;
      workers := [];
      match previous_sigpipe with
      | Some behavior -> ignore (Sys.signal Sys.sigpipe behavior)
      | None -> ())
    (fun () ->
      for _ = 1 to min jobs n do
        spawn_worker ()
      done;
      while !completed < n do
        if !interrupted then raise Interrupted;
        let now = Unix.gettimeofday () in
        delayed :=
          List.filter
            (fun (ready_at, job, attempt) ->
              if ready_at <= now then begin
                Queue.add (job, attempt) pending;
                false
              end
              else true)
            !delayed;
        List.iter (fun w -> if w.current = None && not (Queue.is_empty pending) then dispatch w) !workers;
        let busy = List.filter (fun w -> w.current <> None) !workers in
        if busy = [] then begin
          if not (Queue.is_empty pending) then begin
            (* Every incomplete job is pending but no worker survived to
               take it (e.g. all crashed while the queue drained): refill. *)
            if !workers = [] then spawn_worker ()
          end
          else begin
            match !delayed with
            | [] ->
                invalid_arg "Pool.map: internal accounting error (no busy worker, no pending job)"
            | ds ->
                (* Only backoff delays remain; nothing to select on. *)
                let ready_at = List.fold_left (fun acc (t, _, _) -> min acc t) infinity ds in
                if ready_at > now then begin
                  try Unix.sleepf (ready_at -. now)
                  with Unix.Unix_error (Unix.EINTR, _, _) -> ()
                end
          end
        end
        else begin
          let select_timeout =
            let deadlines =
              (match timeout with
              | None -> []
              | Some t ->
                  List.filter_map
                    (fun w ->
                      match w.current with Some (_, _, start) -> Some (start +. t) | None -> None)
                    busy)
              @ List.map (fun (ready_at, _, _) -> ready_at) !delayed
            in
            match deadlines with
            | [] -> -1.
            | ds -> max 0. (List.fold_left min infinity ds -. now)
          in
          let readable, _, _ =
            select_interruptible (List.map (fun w -> w.from_w) busy) select_timeout
          in
          List.iter
            (fun fd ->
              match List.find_opt (fun w -> w.from_w = fd) !workers with
              | None -> ()
              | Some w -> (
                  match read_frame w.from_w with
                  | job, Ok value, worker_metrics ->
                      (* Fold the worker's per-job registry diff into our own
                         registry: merged totals match a --jobs 1 run. *)
                      Metrics.absorb worker_metrics;
                      let attempt, elapsed =
                        match w.current with
                        | Some (_, attempt, start) -> (attempt, Unix.gettimeofday () -. start)
                        | None -> (1, 0.)
                      in
                      let outcome = Done value in
                      results.(job) <- Some outcome;
                      incr completed;
                      Metrics.incr c_jobs_done;
                      Metrics.observe h_job_seconds elapsed;
                      w.current <- None;
                      progress (Job_done { job; attempt; elapsed });
                      on_result job outcome
                  | job, Error reason, worker_metrics ->
                      (* A failed attempt's increments land in the registry
                         too, matching inline-mode semantics. *)
                      Metrics.absorb worker_metrics;
                      let attempt =
                        match w.current with Some (_, attempt, _) -> attempt | None -> 1
                      in
                      w.current <- None;
                      settle job attempt reason
                  | exception Frame_corrupt ->
                      (* The worker is alive but its frame failed the CRC
                         check: attribute the damage to the worker and
                         replace it, never letting the bytes near Marshal. *)
                      Metrics.incr c_frames_corrupt;
                      handle_dead w "worker sent corrupt result frame (crc mismatch)"
                  | exception (Worker_eof | Unix.Unix_error _ | End_of_file | Failure _) ->
                      handle_dead w "worker crashed (connection lost mid-job)"))
            readable;
          (match timeout with
          | None -> ()
          | Some t ->
              let now = Unix.gettimeofday () in
              List.iter
                (fun w ->
                  match w.current with
                  | Some (_, _, start) when now -. start >= t ->
                      handle_dead w (Printf.sprintf "timed out after %.3gs" t)
                  | _ -> ())
                !workers)
        end
      done;
      Array.map (function Some r -> r | None -> assert false) results)

let map ?jobs ?timeout ?(retries = 1) ?(base_seed = 0) ?(backoff = 0.) ?faults
    ?(progress = fun _ -> ()) ?(on_result = fun _ _ -> ()) ~f inputs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if Array.length inputs = 0 then [||]
  else begin
    (* Graceful shutdown: SIGINT/SIGTERM set a flag checked at every loop
       step; the pool drains and reaps all children (the forked loop's
       finally block) before re-raising as Interrupted. *)
    Signals.with_interrupt_flag (fun interrupted ->
        Trace.with_span "pool.map"
          ~args:(fun () ->
            [
              ("jobs", Flowsched_util.Json.Int jobs);
              ("inputs", Flowsched_util.Json.Int (Array.length inputs));
            ])
          (fun () ->
            if jobs = 1 then
              run_inline ~timeout ~retries ~base_seed ~backoff ~faults ~interrupted ~progress
                ~on_result ~f inputs
            else
              run_forked ~jobs ~timeout ~retries ~base_seed ~backoff ~faults ~interrupted
                ~progress ~on_result ~f inputs))
  end
