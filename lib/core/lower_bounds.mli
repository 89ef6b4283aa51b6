(** Online lower-bound constructions (Figure 4, Lemmas 5.1 and 5.2).

    Both gadgets are adversarial against online algorithms: after the first
    round(s) the adversary aims later flows at whichever ports the algorithm
    left congested.  The static variants fix the adversary's choice (useful
    as plain instances and against algorithms that break ties in a known
    way); the adaptive helpers let the simulator's arrival callback pick the
    worst continuation based on the live queue. *)

val fig4a_static :
  t:int -> total_rounds:int -> Flowsched_switch.Instance.t
(** Lemma 5.1 instance on a 2x2 switch: solid flows (in 0 -> out 0) and
    (in 0 -> out 1) arrive every round in [\[0, t)]; dashed flows
    (in 1 -> out 1) arrive every round in [\[t, total_rounds)].  The offline
    optimum keeps total response linear while any online algorithm that
    leaves (in 0 -> out 1) flows pending pays Omega(t * (total_rounds - t)). *)

val fig4a_dashed_target : pending_out0:int -> pending_out1:int -> int
(** The adaptive adversary's choice: aim dashed flows at the output with
    more pending solid flows (0 or 1). *)

val fig4b_static : unit -> Flowsched_switch.Instance.t
(** Lemma 5.2 instance: solid flows (0,1), (0,0), (1,2), (1,3) released in
    round 0 and dashed flows (2,1), (2,2) in round 1, on a 3-in/4-out unit
    switch.  Its optimal maximum response time is 2 (verified by the exact
    solver in the tests), yet every online algorithm can be forced to 3. *)

val fig4b_optimum : int
(** = 2. *)

val fig4b_dashed : remaining_solid_outputs:int list -> (int * int * int) list
(** The adaptive adversary for {!fig4b_static}: given the output ports of
    the solid flows still pending after round 0, the dashed (unit) flows
    from input 2 to exactly those outputs, as engine arrival specs. *)

(** {2 m-port generalizations}

    The workload zoo's adversarial generators ([Workload.staircase] and
    [Workload.crossflow] in [flowsched_sim]): the Figure 4 gadgets scaled
    to an [m x m] (resp. [m x 2(m-1)]) switch by stacking the 2x2 (resp.
    3x4) conflict pattern across adjacent port pairs.  Deterministic — no
    PRNG draws — and defined per round, so the generators stream them and
    fold the stream into the batch instance. *)

val fig4a_general_specs :
  m:int -> t:int -> total_rounds:int -> int -> (int * int * int) list
(** The [(src, dst, demand)] specs released in the given round of the
    staircase generalization of {!fig4a_static}: for rounds in [\[0, t)]
    every input [i < m-1] releases flows to outputs [i] and [i+1]; for
    rounds in [\[t, total_rounds)] inputs [1..m-1] each release a flow to
    their own output; empty at or beyond [total_rounds].  [m = 2] is the
    original gadget's load pattern. *)

val fig4b_general_specs : m:int -> int -> (int * int * int) list
(** The specs released in the given round of the crossing generalization
    of {!fig4b_static} on [m] inputs and [2(m-1)] outputs: inputs
    [0..m-2] each claim a private output pair in round 0, then input [m-1]
    crosses one output of every pair in round 1; empty after round 1.
    [m = 3] matches the original gadget's shape. *)
