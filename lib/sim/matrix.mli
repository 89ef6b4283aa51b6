(** The problem modes of a grid cell ({!Experiment.cell}): the paper's
    problem and two neighboring ones.

    - {!Flows}: the paper's problem — every policy runs the instance, LP
      (1)-(4) and the min fractional rho give per-cell lower bounds
      (bound kind ["lp"]).
    - {!Endpoint}: endpoint-capacity constraints (Pa-Rajaraman-Stalfa
      2021).  Ports are grouped into balanced contiguous node blocks with a
      shared per-node capacity ({!endpoint_for}); policies run behind
      {!node_guard} and the engine validates every round against the node
      caps.  A capacity-aware FIFO baseline rides along, and the port-only
      LP stays a valid relaxed bound (bound kind ["lp-relaxed"]).
    - {!Coflow}: weighted coflow completion time (Im-Purohit direction).
      Flows are grouped into coflows with seeded random weights
      ({!weighted_coflows}); weighted SEBF, unweighted SEBF, and flow-level
      FIFO are compared against the weighted bottleneck lower bound (bound
      kind ["bottleneck"]). *)

type mode =
  | Flows
  | Endpoint of { nodes : int; node_cap : int }
  | Coflow of { groups : int; max_weight : int }

val mode_names : string list

val mode_of_string : string -> (mode, string) result
(** ["flows"], ["endpoint\[:nodes\[:cap\]\]"] (defaults 2:2),
    ["coflow\[:groups\[:max_weight\]\]"] (defaults 4:4).
    [mode_of_string (mode_to_string m) = Ok m]. *)

val mode_to_string : mode -> string

val endpoint_for :
  Flowsched_switch.Instance.t -> nodes:int -> node_cap:int -> Flowsched_switch.Endpoint.t
(** An Endpoint cell's node structure: [nodes] balanced contiguous blocks
    per side (at most one per port), with caps raised to the instance's
    dmax so every flow fits its nodes alone — otherwise an oversized flow
    could never be scheduled and every policy would starve. *)

val node_guard :
  Flowsched_switch.Endpoint.t -> Flowsched_online.Policy.t -> Flowsched_online.Policy.t
(** The policy with its selection cut to the node capacities: the
    selection is walked in the policy's own order and a flow that would
    overflow its input- or output-side node is dropped. *)

val weighted_coflows :
  seed:int -> groups:int -> max_weight:int -> Flowsched_switch.Instance.t ->
  Flowsched_core.Coflow.t
(** A Coflow cell's grouping: [groups] (at most one per flow) random
    coflows with weights in [1, max_weight], both drawn from [seed]. *)
