open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace
module Json = Flowsched_util.Json

let c_rho_probes = Metrics.counter "mrt.rho_probes"
let c_rho_feasible = Metrics.counter "mrt.rho_probes_feasible"

type solution = {
  rho : int;
  fractional_rho : int;
  schedule : Schedule.t;
  augmented : Instance.t;
  rounding : Mrt_rounding.outcome;
}

(* FIFO's schedule, built once per call: the upper end of the bracket, and
   the start of every LP (19)-(21) solve.  As warm keys, a flow FIFO serves
   inside its active rounds starts basic at 1, and a late flow's key names
   no column and drops out, leaving its assignment row's artificial to
   phase 1.  When FIFO serves every flow in time the keys are a feasible
   basis and phase 1 is skipped. *)
let fifo_start inst fifo =
  List.init (Instance.n inst) (fun e -> Mrt_lp.Bvar (e, Schedule.round_of fifo e))

let solve_at start inst rho = Mrt_lp.solve ~warm:start inst (Mrt_lp.active_of_rho inst rho)

let feasible_rho inst rho = solve_at (fifo_start inst (Baselines.fifo inst)) inst rho <> None

(* The flows at one port released in [a, b], of total demand D, are all
   served in rounds [a, b + rho - 1], and LP (19) lets that port carry c_p
   per round, so rho >= ceil(D / c_p) - (b - a).  With each port's flows
   sorted by release, every release pair is a contiguous range; a range
   that splits a release tie only drops demand, so the maximum is the
   same. *)
let window_bound inst =
  let side caps port_of =
    let at = Array.make (Array.length caps) [] in
    Array.iter (fun (f : Flow.t) -> at.(port_of f) <- f :: at.(port_of f)) inst.Instance.flows;
    let best = ref 1 in
    Array.iteri
      (fun p fs ->
        let fs = Array.of_list fs and c = caps.(p) in
        Array.sort (fun (a : Flow.t) (b : Flow.t) -> compare a.release b.release) fs;
        for i = 0 to Array.length fs - 1 do
          let d = ref 0 in
          for j = i to Array.length fs - 1 do
            d := !d + fs.(j).Flow.demand;
            best := max !best (((!d + c - 1) / c) - (fs.(j).Flow.release - fs.(i).Flow.release))
          done
        done)
      at;
    !best
  in
  max
    (side inst.Instance.cap_in (fun f -> f.Flow.src))
    (side inst.Instance.cap_out (fun f -> f.Flow.dst))

(* Any valid integral schedule is a feasible point of LP (19)-(21) at its
   own max response. *)
let fifo_bound inst fifo =
  if not (Schedule.is_valid inst fifo) then
    failwith "Mrt_scheduler.rho_bracket: FIFO schedule is not valid";
  max 1 (Schedule.max_response inst fifo)

let bracket_of inst fifo = (window_bound inst, fifo_bound inst fifo)
let rho_bracket inst = bracket_of inst (Baselines.fifo inst)

let probe start inst rho =
  Metrics.incr c_rho_probes;
  Trace.with_span "mrt.rho_probe"
    ~args:(fun () -> [ ("rho", Json.Int rho) ])
    (fun () ->
      let frac = solve_at start inst rho in
      if frac <> None then Metrics.incr c_rho_feasible;
      frac)

(* The least feasible rho, and the last feasible probe's solution when it
   was made at that rho: the LP the rounding would solve first. *)
let search inst fifo =
  let bracket = ref None in
  Trace.with_span "mrt.min_fractional_rho"
    ~args:(fun () ->
      match !bracket with
      | Some (lb, ub) -> [ ("lb", Json.Int lb); ("ub", Json.Int ub) ]
      | None -> [])
    (fun () ->
      let lb, ub = bracket_of inst fifo in
      bracket := Some (lb, ub);
      let start = fifo_start inst fifo in
      let lo = ref lb and hi = ref ub and at_hi = ref None in
      (* invariant: hi feasible, lo - 1 infeasible; feasibility is monotone
         in rho, so this finds the least feasible rho *)
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        match probe start inst mid with
        | Some _ as frac ->
            hi := mid;
            at_hi := frac
        | None -> lo := mid + 1
      done;
      (!lo, !at_hi))

let min_fractional_rho inst = fst (search inst (Baselines.fifo inst))

let augmentation inst = max 0 ((2 * Instance.dmax inst) - 1)

(* The rounding starts from FIFO's schedule, never from a probe's final
   basis.  Its first LP is the search's last feasible probe when that probe
   was made at rho*: the same model, row for row, from the same start, so
   [solve inst] and [solve ~rho:(min_fractional_rho inst) inst] return the
   same outcome. *)
let solve ?rho inst =
  let fifo = Baselines.fifo inst in
  let fractional_rho, first =
    match rho with Some r -> (r, None) | None -> search inst fifo
  in
  let start = fifo_start inst fifo in
  match
    Mrt_rounding.round ~start ?first inst (Mrt_lp.active_of_rho inst fractional_rho)
  with
  | None -> failwith "Mrt_scheduler.solve: infeasible rho"
  | Some rounding ->
      let augmented = Instance.scale_capacities inst ~mult:1 ~add:(augmentation inst) in
      let schedule = rounding.Mrt_rounding.schedule in
      {
        rho = Schedule.max_response inst schedule;
        fractional_rho;
        schedule;
        augmented;
        rounding;
      }

let solve_with_deadlines inst ~deadlines =
  let start = fifo_start inst (Baselines.fifo inst) in
  match Mrt_rounding.round ~start inst (Mrt_lp.active_of_deadlines inst deadlines) with
  | None -> None
  | Some rounding ->
      let augmented = Instance.scale_capacities inst ~mult:1 ~add:(augmentation inst) in
      let schedule = rounding.Mrt_rounding.schedule in
      let rho = Schedule.max_response inst schedule in
      Some { rho; fractional_rho = rho; schedule; augmented; rounding }
