(** LP (1)–(4) for Flow Scheduling to Minimize Average Response Time
    (FS-ART), Section 3 of the paper: the Garg–Kumar-style program with
    per-round capacity constraints and fractional response-time objective
    [(t - r_e)/d_e + 1/(2 kappa_e)].  By Lemma 3.1 its optimum lower bounds
    the total response time of {e any} schedule that finishes within the
    chosen horizon.  This is the baseline the paper's Figure 6 compares the
    online heuristics against.  The interval relaxation LP (5)–(8) that
    seeds the rounding of Lemma 3.3 is built by {!Iterative_rounding}.

    The horizon defaults to a value that provably leaves the fractional
    optimum unconstrained (uniform spreading after the last release is
    feasible); callers comparing against concrete schedules should pass
    [~horizon:(max default (makespan of the schedule))] so the bound covers
    those schedules too. *)

type built = {
  model : Flowsched_lp.Model.t;
  var : int -> int -> Flowsched_lp.Model.var option;
      (** [var e t] is the LP variable for flow [e] in round [t], when it
          exists ([t >= release_e] and [t < horizon]). *)
  vars_of_flow : (int * Flowsched_lp.Model.var) list array;
      (** Per flow, the [(round, var)] pairs in increasing round order. *)
  horizon : int;
  instance : Flowsched_switch.Instance.t;  (** The instance the LP was built from. *)
  cap_rows_in : Flowsched_lp.Model.row array array;
      (** [cap_rows_in.(p).(t)] is the capacity row of input port [p] that
          round [t]'s columns sit in, or [-1] when the port has no column in
          that round. *)
  cap_rows_out : Flowsched_lp.Model.row array array;  (** Likewise for output ports. *)
}

val default_horizon : Flowsched_switch.Instance.t -> int
(** [last_release + max_p ceil(load_p / c_p) + 1]: spreading every flow
    uniformly over the rounds after the last release is feasible within this
    horizon, so the LP optimum is not constrained by it. *)

val build_round_lp : ?horizon:int -> Flowsched_switch.Instance.t -> built
(** LP (1)–(4): variables [b_{e,t}], demand rows (2), per-round port
    capacity rows (3), objective [sum ((t - r_e)/d_e + 1/(2 kappa_e))
    b_{e,t}].  Each variable carries the declared bound [b_{e,t} <= d_e]
    (non-binding at the optimum), which adds no row. *)

val dual_bound : built -> float array -> float
(** [dual_bound built u] is the Lagrangian dual of the capacity rows at the
    multipliers [u] (one entry per model row; only the capacity rows' entries
    are read, and those must be [>= 0]):

    {v D(u) = sum_e d_e * min_{r_e <= t < H} (c_{e,t} + u_{src(e),t} + u_{dst(e),t})
            - sum_{capacity rows} rhs * u v}

    where [c_{e,t}] is the column's own objective coefficient, so weighted
    objectives are covered too, and a round without a capacity row has
    [u = 0].  By weak duality [D(u)] is at most the LP optimum for every
    [u >= 0], so it is a lower bound that trusts no solver; it costs one
    pass over the columns.  Raises [Invalid_argument] on a vector of the
    wrong length or a negative capacity multiplier. *)

type bound = {
  total : float;  (** LP optimum: lower bound on total response time. *)
  average : float;  (** [total / n]. *)
  fractional : float array;  (** Per-flow fractional response [Delta_e]. *)
  dual_bound : float;
      (** {!dual_bound} at [u = max(0, -y)], [y] the optimum's capacity-row
          duals: the certificate that [total] is the optimum.  It equals
          [total] to within [Flowsched_lp.Tol.dual_gap] relative. *)
}

val lower_bound : ?horizon:int -> Flowsched_switch.Instance.t -> bound
(** Solves LP (1)–(4) and packages the optimum as a response-time lower
    bound (Lemma 3.1).

    The solve starts from {!Baselines.greedy_maxcard}'s schedule: one
    column per flow at its scheduled round, plus the capacity slacks, is a
    feasible basis, so phase 1 is skipped (a flow scheduled at or past
    [horizon] is left out of the start, and the simplex's warm-start
    fallback takes over).  The optimum is then checked against its
    Lagrangian dual {!dual_bound}: raises [Failure] when the two differ by
    more than [Flowsched_lp.Tol.dual_gap * max 1 |total|], and when the LP
    is infeasible, which cannot happen for a valid instance and default
    horizon. *)

val weighted_lower_bound :
  ?horizon:int -> Flowsched_switch.Instance.t -> weights:float array -> bound
(** The weighted generalization: scales each flow's objective terms by
    [weights.(e)] (all weights must be non-negative), so the optimum lower
    bounds [sum of w_e * rho_e] of any schedule within the horizon — the
    weighted response objective from the paper's complexity discussion.
    [average] reports total divided by the weight sum.  Starts and is
    certified as {!lower_bound}. *)
