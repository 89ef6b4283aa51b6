(* One benchmark run: generate a workload's inputs from the seed, run its
   jobs through the program's public API for the requested time, check the
   outputs, and print every metric with its unit.  The last line of standard
   output is the JSON result.

   A run repeats the workload's jobs (a serve run, one policy's run over a
   sweep cell, an offline instance) until the time is up, generating the
   inputs again before each repetition.  Timed metrics come from each job's
   best repetition: on a shared host each CPU alternates between a fast
   phase and one about 1.7x slower, each lasting seconds, so a mean or
   median over a run depends on which phase dominated it, while the best
   repetition repeats.  The median and quartiles across repetitions are
   printed as well. *)

open Flowsched_switch
module A1 = Bigarray.Array1
module Policy = Flowsched_online.Policy
module Heuristics = Flowsched_online.Heuristics
module Bmatching = Flowsched_bipartite.Bmatching
module Inc = Bmatching.Incremental
module Server = Flowsched_serve.Server
module Source = Flowsched_serve.Source
module Engine = Flowsched_sim.Engine
module Art_lp = Flowsched_core.Art_lp
module Art_scheduler = Flowsched_core.Art_scheduler
module Mrt_scheduler = Flowsched_core.Mrt_scheduler
open Probe

(* What one job produced.  All of it is deterministic: the repeat guard
   compares it across repetitions and across runs of one build and seed. *)
type result = {
  ops : int;  (** Operations completed: flows, policy runs or instances. *)
  flows : int;  (** Flows counted in [sum_response]. *)
  sum_response : int;
  maxima : int list;  (** The maximum response of each schedule produced. *)
  extra : string;  (** Further outputs the guard compares. *)
}

(* [run] makes the timed calls into the program and returns the untimed
   step that checks their outputs and builds the result. *)
type job = { attempts : int; run : unit -> unit -> result }

type workload = {
  name : string;
  generate : int -> job array * int;
      (** Set-up: the jobs of a run from its seed, and a fingerprint of their
          inputs. *)
}

type size = Full | Tiny

let traced () = !Span.enabled

(* ---- serve: Server.run over a pre-generated arrival trace ---- *)

(* [mark] makes each pull the per-slot callback that slot latency is timed
   from; on an uncapped server every slot pulls. *)
let trace_source (tr : Gen.trace) ~mark =
  Source.make
    ~more:(fun s -> s < tr.Gen.slots)
    ~pull:(fun s ->
      if mark then Lat.mark ();
      Span.with_ "serve.source_pull" (fun () ->
          let acc = ref [] in
          for i = tr.Gen.offsets.{s + 1} - 1 downto tr.Gen.offsets.{s} do
            let p = tr.Gen.ports.{i} in
            acc := (p lsr 8, p land 255, 1) :: !acc
          done;
          !acc))

type kind = Card | Weighted of (Policy.context -> float array)

(* The weights Heuristics uses, for replaying its matching calls. *)
let maxweight_weights (ctx : Policy.context) =
  let qin = Array.make ctx.Policy.m 0 and qout = Array.make ctx.Policy.m' 0 in
  Array.iter
    (fun (f : Flow.t) ->
      qin.(f.Flow.src) <- qin.(f.Flow.src) + 1;
      qout.(f.Flow.dst) <- qout.(f.Flow.dst) + 1)
    ctx.Policy.queue;
  Array.map (fun (f : Flow.t) -> float_of_int (qin.(f.Flow.src) + qout.(f.Flow.dst))) ctx.Policy.queue

let minrtime_weights (ctx : Policy.context) =
  Array.map (fun (f : Flow.t) -> float_of_int (ctx.Policy.round - f.Flow.release + 1)) ctx.Policy.queue

(* Replay one select context through the public matching calls, timing
   each.  The replay is excluded from the traced repetition's time. *)
let replay_select kind (ctx : Policy.context) =
  Span.with_ "bench.replay" (fun () ->
      let g =
        Layer.time "bipartite.graph_build_s" (fun () ->
            (Bmatching.expand (Policy.queue_graph ctx) ~cl:ctx.Policy.cap_in ~cr:ctx.Policy.cap_out)
              .Bmatching.graph)
      in
      match kind with
      | Card ->
          ignore
            (Layer.time "bipartite.max_card_s" (fun () ->
                 Flowsched_bipartite.Matching.max_cardinality g))
      | Weighted w ->
          let weights = w ctx in
          ignore
            (Layer.time "bipartite.max_weight_s" (fun () ->
                 Flowsched_bipartite.Weighted_matching.max_weight g weights)))

(* A policy whose select is a per-slot callback into the benchmark: it
   marks slot latency and, when tracing, records a span, the queue length
   and a replay of the matching calls. *)
let instrument (p : Policy.t) kind =
  {
    p with
    Policy.select =
      (fun ctx ->
        Lat.mark ();
        let sel = Span.with_ "online.select" (fun () -> p.Policy.select ctx) in
        if traced () then begin
          Layer.addi "online.select_calls" 1;
          Layer.addi "online.queue_len" (Array.length ctx.Policy.queue);
          if Array.length ctx.Policy.queue > 0 then replay_select kind ctx
        end;
        sel);
  }

(* Replay the serve-steady arrivals through Bmatching.Incremental, as the
   Incremental core does, for the structure's own counts.  It must
   reproduce the server's completions. *)
let replay_incremental (tr : Gen.trace) ~m (o : Server.outcome) =
  let caps = Array.make m 1 in
  let inc = Inc.create ~nl:m ~nr:m ~cap_in:caps ~cap_out:caps in
  let release = A1.create Bigarray.int Bigarray.c_layout (max 1 tr.Gen.flows) in
  let next = ref 0 and slot = ref 0 in
  let completed = ref 0 and sum = ref 0 and mx = ref 0 in
  while !slot < tr.Gen.slots || Inc.pending inc > 0 do
    if !slot < tr.Gen.slots then
      for i = tr.Gen.offsets.{!slot} to tr.Gen.offsets.{!slot + 1} - 1 do
        let p = tr.Gen.ports.{i} in
        Inc.add inc ~id:!next ~src:(p lsr 8) ~dst:(p land 255);
        release.{!next} <- !slot;
        incr next
      done;
    List.iter
      (fun id ->
        let r = !slot - release.{id} + 1 in
        incr completed;
        sum := !sum + r;
        if r > !mx then mx := r)
      (Inc.take_matched inc);
    incr slot
  done;
  Check.expect
    (!completed = o.Server.completed && !sum = o.Server.sum_response && !mx = o.Server.max_response)
    (lazy "incremental replay does not reproduce the server's completions");
  let st = Inc.stats inc in
  Layer.addi "bipartite.inc_searches" st.Inc.searches;
  Layer.addi "bipartite.inc_augments" st.Inc.augments;
  Layer.addi "bipartite.inc_rebinds" st.Inc.rebinds

let serve_job ~cfg ~core ~m (tr : Gen.trace) =
  let incremental = core = None in
  let run () =
    let core =
      match core with
      | None -> Server.Incremental
      | Some (p, kind) -> Server.Policy (instrument p kind)
    in
    let o =
      Registry.into_layer
        [ ("serve.slot_decision_seconds", "serve.core_step_raw_s") ]
        (fun () ->
          Span.with_ "serve.run" (fun () ->
              Server.run cfg core (trace_source tr ~mark:incremental)))
    in
    fun () ->
      Check.expect
        (o.Server.completed = o.Server.arrived && o.Server.final_pending = 0)
        (lazy
          (Printf.sprintf "serve: completed %d of %d, %d left pending" o.Server.completed
             o.Server.arrived o.Server.final_pending));
      Check.expect
        (o.Server.arrived = tr.Gen.flows && o.Server.final_buffered = 0)
        (lazy (Printf.sprintf "serve: admitted %d of %d flows" o.Server.arrived tr.Gen.flows));
      if traced () then begin
        Layer.addi "serve.slots" o.Server.slots;
        Layer.addi "serve.stalled_slots" o.Server.stalled_slots;
        Layer.addi "serve.peak_pending" o.Server.peak_pending;
        if incremental then replay_incremental tr ~m o
      end;
      {
        ops = o.Server.completed;
        flows = o.Server.completed;
        sum_response = o.Server.sum_response;
        maxima = [ o.Server.max_response ];
        extra =
          Printf.sprintf "slots=%d idle=%d stalled=%d peak=%d makespan=%d" o.Server.slots
            o.Server.idle_slots o.Server.stalled_slots o.Server.peak_pending o.Server.makespan;
      }
  in
  { attempts = tr.Gen.flows; run }

(* serve-steady: the CLI's default Incremental core on uniform Poisson
   traffic at load 0.875, no queue caps.  The traffic is split into several
   server runs: the maximum response of one run is an extreme value that
   moves by a fifth from seed to seed, while the mean over runs holds. *)
let serve_steady size =
  let m, rate, slots, runs =
    match size with Full -> (16, 14.0, 6_250, 16) | Tiny -> (4, 3.0, 500, 2)
  in
  let generate seed =
    let traces =
      List.init runs (fun k -> Gen.trace ~seed:((seed * 16) + k) ~m ~rate ~slots ~hot:0. ())
    in
    let cfg = Server.config ~m ~m':m () in
    ( Array.of_list (List.map (serve_job ~cfg ~core:None ~m) traces),
      List.fold_left (fun h tr -> Gen.mix h (Gen.trace_hash tr)) 0 traces )
  in
  { name = "serve-steady"; generate }

(* serve-backlog: MaxWeight held at a fixed deep backlog by an incast
   overload against equal queue and buffer caps.  Each run opens with a
   burst that fills both, so it is deep from its first slot and short runs
   measure the same backlog as long ones. *)
let serve_backlog size =
  let m, rate, slots, cap, runs =
    match size with Full -> (8, 3.0, 1_000, 1000, 4) | Tiny -> (4, 1.5, 300, 50, 2)
  in
  let generate seed =
    let traces =
      List.init runs (fun k ->
          Gen.trace ~burst:(2 * cap) ~seed:((seed * 16) + k) ~m ~rate ~slots ~hot:0.5 ())
    in
    let cfg = Server.config ~queue_cap:cap ~buffer_cap:cap ~m ~m':m () in
    let core = Some (Heuristics.maxweight, Weighted maxweight_weights) in
    ( Array.of_list (List.map (serve_job ~cfg ~core ~m) traces),
      List.fold_left (fun h tr -> Gen.mix h (Gen.trace_hash tr)) 0 traces )
  in
  { name = "serve-backlog"; generate }

(* ---- sweep-paper: the Figure 6/7 cells, LP off ---- *)

let paper_policies =
  [
    (Heuristics.maxcard, Card);
    (Heuristics.minrtime, Weighted minrtime_weights);
    (Heuristics.maxweight, Weighted maxweight_weights);
  ]

(* One policy's run over a cell: the calls Experiment.run_sweep_cell makes
   with the LP off, on an instance generated in set-up (run_sweep_cell
   would generate it inside the timed call). *)
let policy_run_job inst (p, kind) =
  let run () =
    let r =
      Registry.into_layer
        [ ("engine.rounds", "sim.engine_rounds") ]
        (fun () ->
          Span.with_ "sim.engine" (fun () -> Engine.run_instance (instrument p kind) inst))
    in
    fun () ->
      Check.expect (Schedule.is_valid inst r.Engine.schedule) (lazy "sweep: invalid schedule");
      {
        ops = 1;
        flows = Instance.n inst;
        sum_response = Array.fold_left ( + ) 0 r.Engine.responses;
        maxima = [ Engine.max_response r ];
        extra = string_of_int r.Engine.makespan;
      }
  in
  { attempts = 1; run }

(* sweep-paper: one point of the paper's grid, M = 300 (congestion 2) and
   T = 10 on 150 ports, over several seeds.  Cells of one point cost alike,
   so the pooled slot quantiles are not medians of a mixture of cells whose
   rounds differ tenfold in cost, which moved by a quarter between runs. *)
let sweep_paper size =
  let m, rate, rounds, cells =
    match size with Full -> (150, 300., 10, 5) | Tiny -> (8, 12., 4, 2)
  in
  let generate seed =
    let cells =
      List.init cells (fun k -> Gen.instance ~seed:((seed * 16) + k) ~m ~rate ~rounds)
    in
    ( Array.of_list
        (List.concat_map (fun inst -> List.map (policy_run_job inst) paper_policies) cells),
      List.fold_left (fun h i -> Gen.mix h (Gen.instance_hash i)) 0 cells )
  in
  { name = "sweep-paper"; generate }

(* ---- offline-solve: LP bound, Theorem 1, Theorem 3 ---- *)

let lp_pairs =
  [
    ("simplex.solves", "lp.solves");
    ("simplex.pivots", "lp.pivots");
    ("simplex.ftran_calls", "lp.ftran_calls");
    ("simplex.refactorizations", "lp.refactorizations");
    ("simplex.warm_accepted", "lp.warm_accepted");
    ("simplex.bound_flips", "lp.bound_flips");
    ("simplex.basis_nnz", "lp.basis_nnz");
    ("simplex.factor_nnz", "lp.factor_nnz");
    ("simplex.phase1_seconds", "lp.phase1_s");
    ("simplex.phase2_seconds", "lp.phase2_s");
  ]

(* An instance has no slot loop: its latency samples are its three solver
   calls. *)
let instance_job inst =
  let run () =
    Lat.mark ();
    let bound =
      Registry.into_layer
        ((("simplex.phase1_seconds", "lp.art_bound_phase_s")
         :: ("simplex.phase2_seconds", "lp.art_bound_phase_s") :: lp_pairs))
        (fun () -> Span.with_ "core.art_bound" (fun () -> Art_lp.lower_bound inst))
    in
    Lat.mark ();
    let art =
      Registry.into_layer
        (("ir.iterations", "core.ir_iterations") :: ("bvn.color_classes", "bvn.color_classes")
        :: lp_pairs)
        (fun () -> Span.with_ "core.art_solve" (fun () -> Art_scheduler.solve ~c:1 inst))
    in
    Lat.mark ();
    let mrt =
      if not (traced ()) then Mrt_scheduler.solve inst
      else begin
        (* Mrt_scheduler.solve is this search followed by this rounding. *)
        let rho =
          Registry.into_layer
            (("mrt.rho_probes", "core.rho_probes") :: lp_pairs)
            (fun () ->
              Span.with_ "core.rho_search" (fun () -> Mrt_scheduler.min_fractional_rho inst))
        in
        Registry.into_layer
          (("mrt.round_lp_solves", "core.mrt_round_lp_solves") :: lp_pairs)
          (fun () -> Span.with_ "core.mrt_round" (fun () -> Mrt_scheduler.solve ~rho inst))
      end
    in
    Lat.mark ();
    fun () ->
      let fifo = Flowsched_core.Baselines.fifo inst in
      let fifo_total = Schedule.total_response inst fifo in
      let fifo_max = Schedule.max_response inst fifo in
      Check.expect
        (Schedule.is_valid art.Art_scheduler.augmented art.Art_scheduler.schedule)
        (lazy "offline: Theorem 1 schedule invalid on its augmented instance");
      Check.expect
        (Schedule.is_valid mrt.Mrt_scheduler.augmented mrt.Mrt_scheduler.schedule)
        (lazy "offline: Theorem 3 schedule invalid on its augmented instance");
      Check.expect
        (mrt.Mrt_scheduler.rho <= mrt.Mrt_scheduler.fractional_rho)
        (lazy
          (Printf.sprintf "offline: rho %d above fractional rho %d" mrt.Mrt_scheduler.rho
             mrt.Mrt_scheduler.fractional_rho));
      Check.expect
        (bound.Art_lp.total <= float_of_int fifo_total +. 1e-6)
        (lazy
          (Printf.sprintf "offline: ART LP bound %.6f above FIFO total %d" bound.Art_lp.total
             fifo_total));
      Check.expect
        (mrt.Mrt_scheduler.fractional_rho <= fifo_max)
        (lazy
          (Printf.sprintf "offline: MRT LP bound %d above FIFO max %d"
             mrt.Mrt_scheduler.fractional_rho fifo_max));
      if traced () then
        ignore (Layer.time "core.ir_s" (fun () -> Flowsched_core.Iterative_rounding.run inst));
      {
        ops = 1;
        flows = Instance.n inst;
        sum_response = art.Art_scheduler.total_response;
        maxima = [ mrt.Mrt_scheduler.rho ];
        extra =
          Printf.sprintf "lp=%.9g art_lp=%.9g frac_rho=%d" bound.Art_lp.total
            art.Art_scheduler.lp_total mrt.Mrt_scheduler.fractional_rho;
      }
  in
  { attempts = 1; run }

let offline_solve size =
  let m, n, rounds, count = match size with Full -> (6, 96, 8, 12) | Tiny -> (3, 9, 3, 1) in
  let generate seed =
    let insts =
      List.init count (fun k -> Gen.fixed_instance ~seed:((seed * 16) + k) ~m ~n ~rounds)
    in
    ( Array.of_list (List.map instance_job insts),
      List.fold_left (fun h i -> Gen.mix h (Gen.instance_hash i)) 0 insts )
  in
  { name = "offline-solve"; generate }

let workloads = [ serve_steady; serve_backlog; sweep_paper; offline_solve ]

(* ---- the repetition loop ---- *)

(* One repetition of one job. *)
type rep = {
  secs : float;  (** Wall time of the timed calls, replays excluded. *)
  lat : floats;  (** Slot latencies, microseconds. *)
  traced_rep : bool;
  layers : (string * float) list;
  gc_minor : float;
  gc_major : int;
  outcome : result option;  (** [None] when a check failed or a call raised. *)
}

let span_layers ~wall =
  let totals = Span.totals () in
  let total n = match List.assoc_opt n totals with Some t -> t.Span.total_s | None -> 0. in
  let self n = match List.assoc_opt n totals with Some t -> t.Span.self_s | None -> 0. in
  let core_raw = Layer.get "serve.core_step_raw_s" in
  [
    ("serve.loop_self_s", total "serve.run" -. core_raw -. total "serve.source_pull");
    ("serve.core_step_s", if core_raw > 0. then core_raw -. total "bench.replay" else 0.);
    ("serve.source_pull_s", total "serve.source_pull");
    ("online.select_s", total "online.select");
    ("sim.engine_self_s", self "sim.engine");
    ("core.art_bound_s", total "core.art_bound");
    ("core.bvn_s", total "core.art_solve" -. Layer.get "core.ir_s");
    ("core.rho_search_s", total "core.rho_search");
    ("core.mrt_round_s", total "core.mrt_round");
    ("lp.art_bound_build_s", total "core.art_bound" -. Layer.get "lp.art_bound_phase_s");
    ("trace.unaccounted_s", wall -. Span.root_total ());
  ]

let spans_path = ref ""
let failures = ref 0

let run_job (j : job) ~traced_rep ~dump =
  (* Each job starts from the same collector state, so that its time and
     its tail do not depend on the garbage the job before it left. *)
  Gc.full_major ();
  Lat.clear ();
  Layer.reset ();
  Span.clear ();
  Span.next_op ();
  Span.enabled := traced_rep;
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now_ns () in
  let finish = try Some (j.run ()) with e -> Check.fail (Printexc.to_string e); None in
  let t1 = now_ns () in
  let minor1 = Gc.minor_words () and major1 = (Gc.quick_stat ()).Gc.major_collections in
  let lat = Lat.copy () in
  let wall = secs_between t0 t1 in
  let replay =
    match List.assoc_opt "bench.replay" (Span.totals ()) with Some t -> t.Span.total_s | None -> 0.
  in
  let outcome = match finish with Some f -> (try Some (f ()) with e -> Check.fail (Printexc.to_string e); None) | None -> None in
  Span.enabled := false;
  let layers = if traced_rep then Layer.to_list () @ span_layers ~wall else [] in
  if dump && !spans_path <> "" then Span.append !spans_path;
  let outcome =
    match Check.take () with
    | [] -> outcome
    | msgs ->
        List.iter prerr_endline msgs;
        failures := !failures + j.attempts;
        None
  in
  {
    secs = wall -. replay;
    lat;
    traced_rep;
    layers;
    gc_minor = minor1 -. minor0;
    gc_major = major1 - major0;
    outcome;
  }

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median_quartiles a =
  let s = sorted a in
  (quantile s 0.5, quantile s 0.25, quantile s 0.75)

let lat_array (l : floats) = Array.init (A1.dim l) (A1.get l)

(* Everything the guard and the report need from a run. *)
type run = {
  setups : float array;
  reps : rep array array;  (** [reps.(job).(k)], repetitions in order. *)
  jobs : job array;
  heap_peak_words : int;
  heap_after_setup_words : int;
}

let repeat_loop (w : workload) ~seed ~seconds ~trace =
  let t_start = now_ns () in
  let elapsed () = secs_between t_start (now_ns ()) in
  let setups = ref [] in
  let generate () =
    (* Every set-up, and the repetition after it, starts from the same
       collector state: otherwise whether a sub-millisecond set-up includes
       a collection depends on what ran before it. *)
    Gc.full_major ();
    let t0 = now_ns () in
    let jobs, fp = w.generate seed in
    let dt = secs_between t0 (now_ns ()) in
    setups := dt :: !setups;
    (jobs, fp, dt)
  in
  let jobs, fp0, _ = generate () in
  let heap_after_setup = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Before each later repetition, set up again: up to 20 times, until
     10 ms have gone into it, so that short set-ups get enough samples. *)
  let setup_again () =
    let rec go count spent =
      let _, fp, dt = generate () in
      if fp <> fp0 then begin
        prerr_endline "set-up: the same seed gave different inputs";
        incr failures
      end;
      if count < 20 && spent +. dt < 0.01 then go (count + 1) (spent +. dt)
    in
    go 1 0.
  in
  let n = Array.length jobs in
  let reps = Array.make n [] in
  let heap_peak = ref 0 in
  let k = ref 0 in
  let repetition ~traced_rep ~dump =
    if !k > 0 then setup_again ();
    Array.iteri (fun i j -> reps.(i) <- run_job j ~traced_rep ~dump :: reps.(i)) jobs;
    if !k = 0 then heap_peak := (Gc.quick_stat ()).Gc.top_heap_words;
    incr k
  in
  let budget = float_of_int seconds in
  if not trace then begin
    repetition ~traced_rep:false ~dump:false;
    repetition ~traced_rep:false ~dump:false;
    while elapsed () < budget do
      repetition ~traced_rep:false ~dump:false
    done
  end
  else begin
    (* Half the time untraced, for the tracing overhead; half traced. *)
    repetition ~traced_rep:false ~dump:false;
    while elapsed () < budget /. 2. do
      repetition ~traced_rep:false ~dump:false
    done;
    repetition ~traced_rep:true ~dump:true;
    while elapsed () < budget do
      repetition ~traced_rep:true ~dump:false
    done
  end;
  {
    setups = Array.of_list (List.rev !setups);
    reps = Array.map (fun l -> Array.of_list (List.rev l)) reps;
    jobs;
    heap_peak_words = !heap_peak;
    heap_after_setup_words = heap_after_setup;
  }

let best_of reps ~traced =
  let best = ref None in
  Array.iter
    (fun r ->
      if r.traced_rep = traced then
        match !best with Some b when b.secs <= r.secs -> () | _ -> best := Some r)
    reps;
  !best

let first_of reps ~traced =
  Array.fold_left
    (fun acc r -> match acc with None when r.traced_rep = traced -> Some r | _ -> acc)
    None reps

let is_count name =
  not (Filename.check_suffix name "_s" || String.starts_with ~prefix:"gc." name)

(* The repeat guard within a run: every repetition of a job gives the first
   one's result, and every traced repetition the first traced one's counts. *)
let guard_within (r : run) =
  Array.iter
    (fun reps ->
      let first = reps.(0).outcome in
      let first_counts =
        Option.map (fun f -> List.filter (fun (n, _) -> is_count n) f.layers) (first_of reps ~traced:true)
      in
      Array.iter
        (fun rep ->
          if rep.outcome <> None && first <> None && rep.outcome <> first then begin
            prerr_endline "repeat guard: a repetition gave different outputs";
            incr failures
          end;
          match first_counts with
          | Some fc when rep.traced_rep ->
              let c = List.filter (fun (n, _) -> is_count n) rep.layers in
              if List.sort compare c <> List.sort compare fc then begin
                prerr_endline "repeat guard: a traced repetition gave different layer counts";
                incr failures
              end
          | _ -> ())
        reps)
    r.reps

let sum_jobs f (r : run) = Array.fold_left (fun a reps -> a +. f reps) 0. r.reps

let outputs (r : run) =
  Array.to_list (Array.map (fun reps -> reps.(0).outcome) r.reps)
  |> List.filter_map Fun.id

let mean_response (r : run) =
  let outs = outputs r in
  let flows = List.fold_left (fun a o -> a + o.flows) 0 outs in
  float_of_int (List.fold_left (fun a o -> a + o.sum_response) 0 outs) /. float_of_int (max 1 flows)

let max_response (r : run) =
  let maxima = List.concat_map (fun o -> o.maxima) (outputs r) in
  float_of_int (List.fold_left ( + ) 0 maxima) /. float_of_int (max 1 (List.length maxima))

let ops_per_rep (r : run) =
  List.fold_left (fun a o -> a + o.ops) 0 (outputs r)

(* Throughput of repetitions chosen per job by [pick]. *)
let throughput (r : run) pick =
  let secs = sum_jobs (fun reps -> match pick reps with Some b -> b.secs | None -> 0.) r in
  float_of_int (ops_per_rep r) /. secs

(* The slot latencies of some repetitions, microseconds, sorted. *)
let latencies (reps : rep list) =
  sorted (Array.concat (List.map (fun rep -> lat_array rep.lat) reps))

let print_spread name unit best values =
  let med, q1, q3 = median_quartiles values in
  Printf.printf "  %-28s %14.6g %-6s  median %-12.6g q1 %-12.6g q3 %-12.6g (%d values)\n" name
    best unit med q1 q3 (Array.length values)

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         l)
  ^ "}"

(* The repeat guard across runs: the deterministic figures of this build and
   seed are kept under [state] and compared with every later run. *)
let guard_across ~state ~key figures =
  if state <> "" then begin
    if not (Sys.file_exists state) then Sys.mkdir state 0o755;
    let path = Filename.concat state key in
    let exe = Digest.to_hex (Digest.file Sys.executable_name) in
    let text = String.concat "\n" (exe :: figures) ^ "\n" in
    let previous =
      if Sys.file_exists path then
        In_channel.with_open_bin path In_channel.input_all |> Option.some
      else None
    in
    match previous with
    | Some p when String.starts_with ~prefix:(exe ^ "\n") p ->
        if p <> text then begin
          prerr_endline ("repeat guard: figures differ from an earlier run of this build and seed (" ^ path ^ ")");
          incr failures
        end
    | _ -> Out_channel.with_open_bin path (fun oc -> output_string oc text)
  end

(* Per-layer metrics of the traced run, with their units.  Times are summed
   over each job's fastest traced repetition, counts over its first. *)
let per_layer_units =
  [
    ("serve.loop_self_s", "s"); ("serve.core_step_s", "s"); ("serve.source_pull_s", "s");
    ("serve.slots", "count"); ("serve.stalled_slots", "count"); ("serve.peak_pending", "count");
    ("online.select_s", "s"); ("online.select_calls", "count"); ("online.queue_len_mean", "flows");
    ("bipartite.graph_build_s", "s"); ("bipartite.max_weight_s", "s");
    ("bipartite.max_card_s", "s"); ("bipartite.inc_searches", "count");
    ("bipartite.inc_augments", "count"); ("bipartite.inc_rebinds", "count");
    ("sim.engine_self_s", "s"); ("sim.engine_rounds", "count"); ("sim.generate_s", "s");
    ("core.art_bound_s", "s"); ("core.ir_s", "s"); ("core.ir_iterations", "count");
    ("core.bvn_s", "s"); ("bvn.color_classes", "count"); ("core.rho_search_s", "s");
    ("core.rho_probes", "count"); ("core.mrt_round_s", "s");
    ("core.mrt_round_lp_solves", "count"); ("lp.solves", "count"); ("lp.pivots", "count");
    ("lp.ftran_calls", "count"); ("lp.refactorizations", "count");
    ("lp.warm_accepted", "count"); ("lp.bound_flips", "count"); ("lp.fill_ratio", "ratio");
    ("lp.phase1_s", "s"); ("lp.phase2_s", "s"); ("lp.art_bound_build_s", "s");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("trace.unaccounted_s", "s"); ("trace.untraced_throughput_per_s", "1/s");
    ("trace.traced_throughput_per_s", "1/s"); ("trace.overhead_share", "share");
  ]

(* Units of the figures that must repeat exactly. *)
let deterministic_unit u = List.mem u [ "count"; "flows"; "ratio"; "Mwords" ]

let report_trace (r : run) =
  let layer pick name =
    sum_jobs
      (fun reps ->
        match pick reps ~traced:true with
        | Some b -> Option.value (List.assoc_opt name b.layers) ~default:0.
        | None -> 0.)
      r
  in
  let first_untraced f =
    sum_jobs (fun reps -> match first_of reps ~traced:false with Some b -> f b | None -> 0.) r
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let untraced = throughput r (best_of ~traced:false) in
  let traced = throughput r (best_of ~traced:true) in
  let value (name, unit) =
    match name with
    | "online.queue_len_mean" ->
        ratio (layer first_of "online.queue_len") (layer first_of "online.select_calls")
    | "lp.fill_ratio" -> ratio (layer first_of "lp.factor_nnz") (layer first_of "lp.basis_nnz")
    | "serve.peak_pending" ->
        Array.fold_left
          (fun a reps ->
            match first_of reps ~traced:true with
            | Some b -> Float.max a (Option.value (List.assoc_opt name b.layers) ~default:0.)
            | None -> a)
          0. r.reps
    | "sim.generate_s" -> Array.fold_left Float.min infinity r.setups
    | "gc.minor_mwords" -> first_untraced (fun b -> b.gc_minor) /. 1e6
    | "gc.major_collections" -> first_untraced (fun b -> float_of_int b.gc_major)
    | "trace.untraced_throughput_per_s" -> untraced
    | "trace.traced_throughput_per_s" -> traced
    | "trace.overhead_share" -> ratio (untraced -. traced) untraced
    | _ when deterministic_unit unit -> layer first_of name
    | _ -> layer best_of name
  in
  let metrics = List.map (fun (n, u) -> (n, u, value (n, u))) per_layer_units in
  print_endline "per-layer metrics (times: fastest traced repetition of each job; counts: first)";
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %16.9g %s\n" n v u) metrics;
  let figures =
    List.filter_map
      (fun (n, u, v) -> if deterministic_unit u then Some (Printf.sprintf "%s %.17g" n v) else None)
      metrics
  in
  (metrics, figures)

(* Slot latency quantile [q]: for each job, the [q]-quantile of its own
   samples in the repetition where that is lowest, averaged over the jobs.
   A slow phase over part of a repetition fattens its tail while barely
   moving its total, so the fastest repetition is not the one to take a
   tail from; and jobs differ in cost (policies, solver calls), so a
   quantile pooled across them falls between their clusters, where it
   moved by a quarter between runs.  Also returns the samples of the chosen
   repetitions and how many lie beyond their job's quantile. *)
let slot_quantile (r : run) q =
  let per_job reps =
    Array.fold_left
      (fun ((bv, _, _) as best) rep ->
        if rep.traced_rep then best
        else
          let s = latencies [ rep ] in
          let v = quantile s q in
          if v < bv then
            (v, Array.length s, Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 s)
          else best)
      (infinity, 0, 0) reps
  in
  let picked =
    List.filter (fun (v, _, _) -> Float.is_finite v) (List.map per_job (Array.to_list r.reps))
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 picked in
  ( List.fold_left (fun a (v, _, _) -> a +. v) 0. picked /. float_of_int (max 1 (List.length picked)),
    sum (fun (_, n, _) -> n),
    sum (fun (_, _, b) -> b) )

let report_e2e (r : run) =
  let p50, _, _ = slot_quantile r 0.5 in
  let p99, samples, beyond = slot_quantile r 0.99 in
  let nreps = Array.fold_left (fun a reps -> min a (Array.length reps)) max_int r.reps in
  let per_rep f = Array.init nreps f in
  let rep k = Array.to_list (Array.map (fun reps -> reps.(k)) r.reps) in
  let rep_tput =
    per_rep (fun k ->
        float_of_int (ops_per_rep r) /. List.fold_left (fun a b -> a +. b.secs) 0. (rep k))
  in
  let rep_q q = per_rep (fun k -> quantile (latencies (rep k)) q) in
  let setup = Array.fold_left Float.min infinity r.setups in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  let metrics =
    [
      ("setup_s", "s", setup);
      ("throughput_per_s", "1/s", throughput r (best_of ~traced:false));
      ("slot_p50_us", "us", p50);
      ("slot_p99_us", "us", p99);
      ("mean_response_slots", "slots", mean_response r);
      ("max_response_slots", "slots", max_response r);
      ("heap_peak_mb", "MB", mb r.heap_peak_words);
    ]
  in
  print_endline
    "timed metrics (reported: fastest repetition of each job; spread across repetitions)";
  print_spread "setup_s" "s" setup r.setups;
  print_spread "throughput_per_s" "1/s" (throughput r (best_of ~traced:false)) rep_tput;
  print_spread "slot_p50_us" "us" p50 (rep_q 0.5);
  print_spread "slot_p99_us" "us" p99 (rep_q 0.99);
  Printf.printf "  slot samples %d, %d beyond their job's p99\n" samples beyond;
  Array.iteri
    (fun i reps ->
      let secs = Array.map (fun rep -> rep.secs) reps in
      let med, q1, q3 = median_quartiles secs in
      Printf.printf "  job %-3d seconds: best %-10.6g median %-10.6g q1 %-10.6g q3 %-10.6g\n" i
        (Array.fold_left Float.min infinity secs) med q1 q3)
    r.reps;
  print_endline "deterministic metrics";
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-28s %.17g %s\n" n v u)
    (List.filteri (fun i _ -> i >= 4) metrics);
  Printf.printf "  heap high-water after set-up %.3f MB\n" (mb r.heap_after_setup_words);
  let figures =
    Printf.sprintf "heap_peak_words %d" r.heap_peak_words
    :: List.map
         (fun o ->
           Printf.sprintf "ops=%d flows=%d sum=%d max=%s %s" o.ops o.flows o.sum_response
             (String.concat "," (List.map string_of_int o.maxima))
             o.extra)
         (outputs r)
  in
  (metrics, figures)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let size = ref Full and state = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME serve-steady|serve-backlog|sweep-paper|offline-solve");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S how long to repeat the workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics from a traced run");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
        " input size; tiny is for the benchmark's own test" );
      ("--state", Arg.Set_string state, "DIR where the repeat guard keeps figures between runs");
      ("--spans", Arg.Set_string spans_path, "FILE where the traced run appends its spans");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let w =
    match List.find_opt (fun f -> (f !size).name = !workload) workloads with
    | Some f -> f !size
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !spans_path <> "" && Sys.file_exists !spans_path then Sys.remove !spans_path;
  let r = repeat_loop w ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1) in
  guard_within r;
  Printf.printf "workload %s, seed %d, %d set-ups, %d repetitions of %d jobs\n" w.name !seed
    (Array.length r.setups) (Array.length r.reps.(0)) (Array.length r.jobs);
  let metrics, figures = if !trace = 1 then report_trace r else report_e2e r in
  let size_name = match !size with Full -> "full" | Tiny -> "tiny" in
  guard_across ~state:!state
    ~key:(Printf.sprintf "%s.%d.%s.trace%d" w.name !seed size_name !trace)
    figures;
  let attempted =
    Array.fold_left ( + ) 0
      (Array.map2 (fun j reps -> j.attempts * Array.length reps) r.jobs r.reps)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (!failures = 0) attempted !failures (json_metrics metrics)
