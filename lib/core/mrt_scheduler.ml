open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_rho_probes = Metrics.counter "mrt.rho_probes"
let c_rho_feasible = Metrics.counter "mrt.rho_probes_feasible"

type solution = {
  rho : int;
  fractional_rho : int;
  schedule : Schedule.t;
  augmented : Instance.t;
  rounding : Mrt_rounding.outcome;
}

let feasible_rho inst rho = Mrt_lp.is_fractionally_feasible inst (Mrt_lp.active_of_rho inst rho)

let default_hi inst =
  (* Uniform spreading after the last release is fractionally feasible, so
     every flow finishes within this span of its release. *)
  Art_lp.default_horizon inst

let min_fractional_rho ?hi ?(warm_start = true) inst =
  Trace.with_span "mrt.min_fractional_rho" (fun () ->
  let hi = match hi with Some h -> h | None -> default_hi inst in
  (* The probe LPs of the binary search differ only in their active sets, so
     the optimal basis of the last feasible probe seeds the next one: keys
     for rounds cut from the shrunken windows are dropped on translation.
     The result — the least feasible rho — is independent of which vertex
     each probe lands on, so warm starting cannot change the answer. *)
  let warm = ref None in
  let probe rho =
    Metrics.incr c_rho_probes;
    Trace.with_span "mrt.rho_probe"
      ~args:(fun () -> [ ("rho", Flowsched_util.Json.Int rho) ])
      (fun () ->
        Flowsched_domains.Deadline.check ();
        let active = Mrt_lp.active_of_rho inst rho in
        match Mrt_lp.solve ?warm:(if warm_start then !warm else None) inst active with
        | None -> false
        | Some frac ->
            Metrics.incr c_rho_feasible;
            warm := Some frac.Mrt_lp.basis;
            true)
  in
  if not (probe hi) then
    failwith "Mrt_scheduler.min_fractional_rho: upper bound infeasible";
  let lo = ref 1 and hi = ref hi in
  (* invariant: hi feasible, lo - 1 infeasible (rho = 0 is vacuously
     infeasible for a non-empty instance) *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if probe mid then hi := mid else lo := mid + 1
  done;
  !lo)

let augmentation inst = max 0 ((2 * Instance.dmax inst) - 1)

let solve ?rho inst =
  let fractional_rho = match rho with Some r -> r | None -> min_fractional_rho inst in
  match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst fractional_rho) with
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
  match Mrt_rounding.round inst (Mrt_lp.active_of_deadlines inst deadlines) with
  | None -> None
  | Some rounding ->
      let augmented = Instance.scale_capacities inst ~mult:1 ~add:(augmentation inst) in
      let schedule = rounding.Mrt_rounding.schedule in
      let rho = Schedule.max_response inst schedule in
      Some { rho; fractional_rho = rho; schedule; augmented; rounding }
