open Flowsched_switch

type t = { more : int -> bool; pull : int -> (int * int * int) list }

let make ~more ~pull = { more; pull }
let more t slot = t.more slot
let pull t slot = t.pull slot

let of_instance (inst : Instance.t) =
  let released = Instance.by_release inst in
  let last = Instance.last_release inst in
  {
    more = (fun slot -> slot <= last);
    pull =
      (fun slot ->
        List.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst, f.Flow.demand)) (released slot));
  }

let of_scenario spec ~horizon =
  if horizon < 0 then invalid_arg "Source.of_scenario: negative horizon";
  match Flowsched_sim.Scenario.stream spec with
  | Error msg -> invalid_arg ("Source.of_scenario: " ^ msg)
  | Ok s ->
      {
        more = (fun _slot -> Flowsched_sim.Workload.slot s < horizon);
        pull = (fun _slot -> Flowsched_sim.Workload.next s);
      }
