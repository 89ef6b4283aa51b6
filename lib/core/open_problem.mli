(** The open question of Section 6.

    "What is the maximum response time achievable for a sequence of unit
    flow requests represented by bipartite graphs G_1, ..., G_T which
    satisfy the following condition: for any interval I and any port v, the
    sum over i in I of the degrees of v in G_i is at most |I| + 1?  [...]
    Without any capacity augmentation, can every request be satisfied with
    a constant response time?"

    This module makes the question executable: a generator for instances
    satisfying the degree condition (random per-round matchings perturbed
    by early releases while the +1 slack is preserved), the slack checker,
    and a study harness that measures what response times such instances
    actually need — fractionally (LP), heuristically (MinRTime), and
    exactly on small cases.  The empirical answer feeds the ablation block
    of the bench harness. *)

val interval_slack : Flowsched_switch.Instance.t -> int
(** Max over ports [v] and release intervals [I] of
    [(number of flows at v released during I) - |I|].  The open problem's
    instance class is exactly [interval_slack <= 1]; a sequence of plain
    matchings has slack <= 0. *)

val generate : seed:int -> m:int -> rounds:int -> Flowsched_switch.Instance.t
(** Unit-capacity, unit-demand instance with [interval_slack <= 1]:
    [rounds] random partial matchings (each edge kept with probability
    0.7) released one per round, then [m * rounds / 2] times a random flow
    has its release moved earlier, undone if the slack condition fails. *)

type study = {
  trials : int;
  flows_total : int;
  worst_slack : int;  (** Should be 1 for interesting instances. *)
  worst_fractional_rho : int;  (** LP (19)-(21) binary search, no augmentation in the relaxation. *)
  worst_heuristic : int;  (** MinRTime online max response, no augmentation. *)
  worst_exact : int option;  (** Exact optimum over trials small enough to solve. *)
}

val study : seed:int -> m:int -> rounds:int -> trials:int -> study
(** Runs [trials] generated instances and aggregates the worst observed
    values — empirical evidence toward (or against) the constant-response
    conjecture. *)
