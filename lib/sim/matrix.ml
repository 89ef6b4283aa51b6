open Flowsched_switch
open Flowsched_util

type mode =
  | Flows
  | Endpoint of { nodes : int; node_cap : int }
  | Coflow of { groups : int; max_weight : int }

let mode_names = [ "flows"; "endpoint"; "coflow" ]

let mode_of_string s =
  let int_param name v =
    match int_of_string_opt v with
    | Some i when i >= 1 -> Ok i
    | _ -> Error (Printf.sprintf "mode %S: bad parameter %S" name v)
  in
  match String.split_on_char ':' s with
  | [ "flows" ] -> Ok Flows
  | "endpoint" :: rest -> (
      match rest with
      | [] -> Ok (Endpoint { nodes = 2; node_cap = 2 })
      | [ n ] -> Result.map (fun nodes -> Endpoint { nodes; node_cap = 2 }) (int_param s n)
      | [ n; c ] ->
          Result.bind (int_param s n) (fun nodes ->
              Result.map (fun node_cap -> Endpoint { nodes; node_cap }) (int_param s c))
      | _ -> Error (Printf.sprintf "mode %S: too many parameters" s))
  | "coflow" :: rest -> (
      match rest with
      | [] -> Ok (Coflow { groups = 4; max_weight = 4 })
      | [ g ] -> Result.map (fun groups -> Coflow { groups; max_weight = 4 }) (int_param s g)
      | [ g; w ] ->
          Result.bind (int_param s g) (fun groups ->
              Result.map (fun max_weight -> Coflow { groups; max_weight }) (int_param s w))
      | _ -> Error (Printf.sprintf "mode %S: too many parameters" s))
  | _ ->
      Error
        (Printf.sprintf "unknown mode %S (expected %s)" s (String.concat "|" mode_names))

let mode_to_string = function
  | Flows -> "flows"
  | Endpoint { nodes; node_cap } -> Printf.sprintf "endpoint:%d:%d" nodes node_cap
  | Coflow { groups; max_weight } -> Printf.sprintf "coflow:%d:%d" groups max_weight

(* Wrap a policy so its selection also respects the node capacities: walk
   the selection in the policy's own order and drop any flow that would
   overflow its input- or output-side node.  Dropping flows from a
   port-feasible set keeps it port-feasible, and with node caps scaled to
   admit every flow alone (see [endpoint_for]) any non-empty selection
   keeps at least its first flow, so the engine still makes progress. *)
let node_guard (ep : Endpoint.t) (p : Flowsched_online.Policy.t) =
  {
    Flowsched_online.Policy.name = p.Flowsched_online.Policy.name;
    select =
      (fun ctx ->
        let sel = p.Flowsched_online.Policy.select ctx in
        let load_in = Array.make ep.Endpoint.nodes_in 0 in
        let load_out = Array.make ep.Endpoint.nodes_out 0 in
        List.filter
          (fun i ->
            let f = ctx.Flowsched_online.Policy.queue.(i) in
            let ni = ep.Endpoint.node_in.(f.Flow.src) in
            let no = ep.Endpoint.node_out.(f.Flow.dst) in
            if
              load_in.(ni) + f.Flow.demand <= ep.Endpoint.cap_node_in.(ni)
              && load_out.(no) + f.Flow.demand <= ep.Endpoint.cap_node_out.(no)
            then begin
              load_in.(ni) <- load_in.(ni) + f.Flow.demand;
              load_out.(no) <- load_out.(no) + f.Flow.demand;
              true
            end
            else false)
          sel);
  }

let endpoint_for inst ~nodes ~node_cap =
  let ep =
    Endpoint.blocks ~m:inst.Instance.m ~m':inst.Instance.m'
      ~nodes:(min nodes (min inst.Instance.m inst.Instance.m'))
      ~cap:node_cap
  in
  Endpoint.scale ep ~min_cap:(max 1 (Instance.dmax inst))

let weighted_coflows ~seed ~groups ~max_weight inst =
  let groups = max 1 (min groups (Instance.n inst)) in
  let cof = Flowsched_core.Coflow.random_grouping ~seed:(seed + 7919) ~groups inst in
  let wg = Prng.create (seed + 104729) in
  Flowsched_core.Coflow.with_weights cof
    (Array.init groups (fun _ -> 1 + Prng.int wg max_weight))
