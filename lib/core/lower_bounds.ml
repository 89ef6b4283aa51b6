open Flowsched_switch

let fig4a_static ~t ~total_rounds =
  if t < 1 || total_rounds <= t then invalid_arg "Lower_bounds.fig4a_static: need 1 <= t < total_rounds";
  let specs = ref [] in
  for r = t to total_rounds - 1 do
    specs := (1, 1, 1, r) :: !specs
  done;
  for r = t - 1 downto 0 do
    specs := (0, 1, 1, r) :: (0, 0, 1, r) :: !specs
  done;
  Instance.of_flows ~m:2 ~m':2 !specs

let fig4a_dashed_target ~pending_out0 ~pending_out1 =
  if pending_out0 > pending_out1 then 0 else 1

let fig4b_static () =
  Instance.of_flows ~m:3 ~m':4
    [
      (0, 1, 1, 0);
      (* (1,3) *)
      (0, 0, 1, 0);
      (* (1,2) *)
      (1, 2, 1, 0);
      (* (4,5) *)
      (1, 3, 1, 0);
      (* (4,6) *)
      (2, 1, 1, 1);
      (* (7,3) *)
      (2, 2, 1, 1);
      (* (7,5) *)
    ]

let fig4b_optimum = 2

let fig4b_dashed ~remaining_solid_outputs =
  List.map (fun out -> (2, out, 1)) remaining_solid_outputs

(* Generalizations of the Figure 4 gadgets to m-port switches, the
   workload zoo's adversarial generators.  Both emit their specs per round
   in canonical (input, output) order; the generators stream them slot by
   slot and fold the stream into the batch instance. *)

let fig4a_general_specs ~m ~t ~total_rounds round =
  if round < t then
    (* Phase 1: each of the m-1 overloaded inputs i feeds its own output i
       and the shared neighbour i+1 — the staircase of conflicting pairs. *)
    List.concat (List.init (m - 1) (fun i -> [ (i, i, 1); (i, i + 1, 1) ]))
  else if round < total_rounds then
    (* Phase 2: the adversary aims fresh flows at every congested shared
       output, exactly as the 2x2 gadget does with its dashed flows. *)
    List.init (m - 1) (fun i -> (i + 1, i + 1, 1))
  else []

let fig4b_general_specs ~m round =
  let k = m - 1 in
  if round = 0 then
    (* Round 0: k solid inputs, each claiming a private pair of outputs. *)
    List.concat (List.init k (fun i -> [ (i, 2 * i, 1); (i, (2 * i) + 1, 1) ]))
  else if round = 1 then
    (* Round 1: the crossing input hits one output of every pair, so any
       online algorithm that served the wrong half of each pair in round 0
       now collides on all of them at once. *)
    List.init k (fun i -> (k, (2 * i) + 1, 1))
  else []
