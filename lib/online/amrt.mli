(** The batching online algorithm for maximum response time (Lemma 5.3).

    AMRT keeps a guess [rho] of the maximum response time.  At checkpoints
    spaced [rho] rounds apart it collects the flows that arrived since the
    last checkpoint and asks the offline Theorem 3 machinery whether that
    batch can be scheduled within the next [rho] rounds; if yes, the batch
    is committed to the rounded offline schedule, and if not, the guess is
    incremented and the check retried until the batch fits.  Because batch
    windows never overlap more than two at a time, the policy is
    2-competitive for maximum response time while using at most
    [2 (c_p + 2 dmax - 1)] capacity at each port — run it on an engine with
    capacities augmented via {!required_capacities}. *)

val make : planning_cap_in:int array -> planning_cap_out:int array -> Policy.t
(** A fresh stateful policy whose guess starts at [rho = 1].
    [planning_cap_*] are the {e original} port capacities the offline
    subroutine plans against. *)

val required_capacities :
  cap_in:int array -> cap_out:int array -> dmax:int -> int array * int array
(** [2 * (c_p + 2 dmax - 1)] per port: capacities under which the policy's
    selections are always feasible. *)

val current_rho : Policy.t -> int option
(** Introspection for tests: the policy's current guess (only for policies
    created by {!make}). *)
