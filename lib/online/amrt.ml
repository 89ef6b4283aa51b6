open Flowsched_switch

let required_capacities ~cap_in ~cap_out ~dmax =
  let aug c = 2 * (c + (2 * dmax) - 1) in
  (Array.map aug cap_in, Array.map aug cap_out)

(* Registry for introspection: policy name is unique per instance. *)
let rho_registry : (string, int ref) Hashtbl.t = Hashtbl.create 4
let instance_counter = ref 0

let make ~planning_cap_in ~planning_cap_out =
  let rho = ref 1 in
  let next_checkpoint = ref 0 in
  (* flow id -> committed absolute round *)
  let plan : (int, int) Hashtbl.t = Hashtbl.create 64 in
  incr instance_counter;
  let name = Printf.sprintf "AMRT#%d" !instance_counter in
  Hashtbl.replace rho_registry name rho;
  let select ctx =
    let t = ctx.Policy.round in
    if t >= !next_checkpoint then begin
      (* Batch = pending flows not yet committed.  Try to schedule them all
         within [t, t + rho) using the offline algorithm. *)
      let batch =
        Array.to_list ctx.Policy.queue
        |> List.filter (fun (f : Flow.t) -> not (Hashtbl.mem plan f.Flow.id))
      in
      (if batch <> [] then begin
         let flows =
           Array.of_list
             (List.mapi
                (fun i (f : Flow.t) ->
                  Flow.make ~id:i ~src:f.Flow.src ~dst:f.Flow.dst ~demand:f.Flow.demand
                    ~release:0 ())
                batch)
         in
         let sub =
           Instance.create ~cap_in:planning_cap_in ~cap_out:planning_cap_out
             ~m:ctx.Policy.m ~m':ctx.Policy.m' flows
         in
         (* Grow the guess until the batch fits (serializing the batch
            always fits, so this terminates), then commit to the rounded
            offline schedule. *)
         let rec attempt () =
           let active _ = List.init !rho (fun i -> i) in
           match Flowsched_core.Mrt_rounding.round sub active with
           | Some outcome ->
               List.iteri
                 (fun i (f : Flow.t) ->
                   let rel =
                     Schedule.round_of outcome.Flowsched_core.Mrt_rounding.schedule i
                   in
                   Hashtbl.replace plan f.Flow.id (t + rel))
                 batch
           | None ->
               incr rho;
               attempt ()
         in
         attempt ()
       end);
      next_checkpoint := t + !rho
    end;
    (* Emit the committed flows for this round. *)
    let selected = ref [] in
    Array.iteri
      (fun i (f : Flow.t) ->
        match Hashtbl.find_opt plan f.Flow.id with
        | Some round when round <= t -> selected := i :: !selected
        | _ -> ())
      ctx.Policy.queue;
    !selected
  in
  { Policy.name; select }

let current_rho (p : Policy.t) =
  match Hashtbl.find_opt rho_registry p.Policy.name with
  | Some r -> Some !r
  | None -> None
