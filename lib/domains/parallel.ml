module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_forks = Metrics.counter "domains.parallel_forks"

(* Indices are strided, not blocked: chunk k runs k, k+width, k+2width...
   so a monotone cost gradient across indices spreads evenly. *)
let run_chunk n width k f =
  let out = ref [] in
  let i = ref k in
  while !i < n do
    let r = match f !i with v -> Ok v | exception e -> Error e in
    out := (!i, r) :: !out;
    i := !i + width
  done;
  !out

let map ~width n f =
  if n <= 0 then [||]
  else if width <= 1 || n = 1 then Array.init n f
  else begin
    let width = min width n in
    let deadline = Deadline.get () in
    Metrics.incr c_forks ~by:(width - 1);
    let children =
      Array.init (width - 1) (fun j ->
          Domain.spawn (fun () ->
              Deadline.set deadline;
              let r = run_chunk n width (j + 1) f in
              (r, Metrics.snapshot (), Trace.drain ())))
    in
    let mine = run_chunk n width 0 f in
    let results = Array.make n None in
    let place = List.iter (fun (i, r) -> results.(i) <- Some r) in
    place mine;
    (* Join every child before looking at failures: no orphaned domains,
       and metrics/spans absorb in chunk order for a deterministic merge. *)
    Array.iter
      (fun d ->
        let r, snap, spans = Domain.join d in
        Metrics.absorb snap;
        Trace.absorb spans;
        place r)
      children;
    Array.iteri
      (fun _ r -> match r with Some (Error e) -> raise e | _ -> ())
      results;
    Array.map (function Some (Ok v) -> v | _ -> assert false) results
  end
