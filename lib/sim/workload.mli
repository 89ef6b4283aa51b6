(** Workload generation: the paper's arrivals (§5.2.1) and the zoo beyond
    them.

    "for each time unit t = 0..T-1, a Poisson distribution of mean M is used
    to generate flows released at time t.  For each such flow, an input port
    and an output port is selected uniformly at random."  That is
    {!poisson}; the other generators vary its demands, its endpoints or its
    rate.

    Every generator except {!uniform_total} is a slot-clocked [*_stream]
    (what the serve loop consumes), and its batch instance is {e defined}
    as {!batch} folded over [rounds] slots of a fresh stream.  So for any
    seed and any horizon [T], concatenating {!next} over slots [0..T-1]
    yields exactly the flow specs of the batch instance generated with the
    same parameters — the prefix property, by construction.

    All generators raise [Invalid_argument] on degenerate parameters instead
    of silently producing empty or NaN-weighted draws: [m < 1], nonpositive
    [rate], [rounds < 1], [alpha <= 0], fractions outside [\[0, 1\]],
    [max_demand < 1], and out-of-range window, popularity or gadget
    parameters. *)

(** {1 Streams} *)

type stream

val next : stream -> (int * int * int) list
(** Arrivals [(src, dst, demand)] released at the stream's current slot, in
    generation order; advances the stream to the next slot.  The list is
    empty on slots where the Poisson draw is zero. *)

val slot : stream -> int
(** Number of slots generated so far (the slot the next {!next} call will
    produce). *)

val batch :
  ?cap_in:int array -> ?cap_out:int array ->
  m:int -> m':int -> rounds:int -> stream -> Flowsched_switch.Instance.t
(** Drain a fresh stream for [rounds] slots into an instance (release = the
    slot each batch was pulled at).  Every named batch generator below is
    this fold over its stream. *)

(** {1 The paper's arrivals} *)

val poisson_stream : m:int -> rate:float -> seed:int -> stream
(** Unit-capacity, unit-demand [m x m] switch; [rate] is the paper's M. *)

val poisson :
  m:int -> rate:float -> rounds:int -> seed:int -> Flowsched_switch.Instance.t
(** The result can have zero flows for tiny [rate * rounds]. *)

val poisson_with_demands_stream :
  m:int -> rate:float -> max_demand:int -> seed:int -> stream
(** Same arrivals, uniform demands in [\[1, max_demand\]]. *)

val poisson_with_demands :
  m:int -> rate:float -> rounds:int -> max_demand:int -> seed:int ->
  Flowsched_switch.Instance.t
(** All port capacities set to [max_demand] so every flow fits. *)

val skewed_stream : m:int -> rate:float -> alpha:float -> seed:int -> stream
(** Poisson arrivals whose endpoints follow a Zipf(alpha) popularity
    distribution over ports instead of the paper's uniform choice — the
    "distribution of input instances" direction from the paper's
    future-work section.  Hot ports concentrate load, which stresses the
    heuristics' queue management far more than uniform traffic. *)

val skewed :
  m:int -> rate:float -> rounds:int -> alpha:float -> seed:int ->
  Flowsched_switch.Instance.t

val hotspot_stream : m:int -> rate:float -> fraction:float -> seed:int -> stream
(** Poisson arrivals where a [fraction] of all flows target output port 0
    (an incast hotspot, e.g. a storage head node); sources and the
    remaining destinations stay uniform. *)

val hotspot :
  m:int -> rate:float -> rounds:int -> fraction:float -> seed:int ->
  Flowsched_switch.Instance.t

val uniform_total :
  m:int -> n:int -> max_release:int -> seed:int -> Flowsched_switch.Instance.t
(** Exactly [n] unit flows with uniform ports and uniform releases in
    [\[0, max_release\]] — the workload used for offline algorithm tests
    where a fixed instance size matters more than an arrival process.
    Batch-only: it draws releases out of slot order. *)

(** {1 Heavy-tailed demand distributions}

    Poisson arrivals, uniform endpoints, demands drawn from a heavy-tailed
    distribution capped at [max_demand]; all port capacities are set to
    [max_demand] so every flow fits (as in {!poisson_with_demands}). *)

val pareto_stream :
  m:int -> rate:float -> alpha:float -> max_demand:int -> seed:int -> stream
(** Demands [min(max_demand, ceil((1-u)^(-1/alpha)))] — Pareto with
    [x_min = 1]; small [alpha] (e.g. 1.1–1.5) gives the elephant/mice mix
    measured in datacenter traces. *)

val pareto :
  m:int -> rate:float -> alpha:float -> max_demand:int -> rounds:int ->
  seed:int -> Flowsched_switch.Instance.t

val lognormal_stream :
  m:int -> rate:float -> mu:float -> sigma:float -> max_demand:int ->
  seed:int -> stream
(** Demands [round(exp(mu + sigma Z))] with [Z] standard normal (Box–Muller),
    clamped to [\[1, max_demand\]]. *)

val lognormal :
  m:int -> rate:float -> mu:float -> sigma:float -> max_demand:int ->
  rounds:int -> seed:int -> Flowsched_switch.Instance.t

(** {1 Modulated arrival processes}

    Unit demands, uniform endpoints, Poisson arrivals whose mean varies by
    slot. *)

val bursty_stream :
  m:int -> rate:float -> burst:float -> period:int -> duty:float ->
  seed:int -> stream
(** Deterministic duty cycle: the first [ceil(duty * period)] slots of every
    period run at [rate * burst], the rest at [rate]. *)

val bursty :
  m:int -> rate:float -> burst:float -> period:int -> duty:float ->
  rounds:int -> seed:int -> Flowsched_switch.Instance.t

val diurnal_stream :
  m:int -> rate:float -> period:int -> amplitude:float -> seed:int -> stream
(** Sinusoidal modulation [rate * (1 + amplitude sin(2 pi slot / period))];
    [amplitude] within [\[0, 1\]] keeps the mean nonnegative. *)

val diurnal :
  m:int -> rate:float -> period:int -> amplitude:float -> rounds:int ->
  seed:int -> Flowsched_switch.Instance.t

val flash_crowd_stream :
  m:int -> rate:float -> at:int -> len:int -> mult:float -> fraction:float ->
  seed:int -> stream
(** Baseline uniform Poisson traffic; during slots [\[at, at+len)] the rate
    jumps to [rate * mult] and a [fraction] of flows target output port 0
    (an incast flash crowd). *)

val flash_crowd :
  m:int -> rate:float -> at:int -> len:int -> mult:float -> fraction:float ->
  rounds:int -> seed:int -> Flowsched_switch.Instance.t

(** {1 Skewed port popularity beyond Zipf} *)

val bimodal_stream :
  m:int -> rate:float -> hot:int -> weight:float -> seed:int -> stream
(** Two-point popularity: with probability [weight] an endpoint is uniform
    over the [hot] lowest-numbered ports, otherwise uniform over all [m] —
    a sharper head/tail split than any Zipf exponent produces.  Requires
    [1 <= hot <= m]. *)

val bimodal :
  m:int -> rate:float -> hot:int -> weight:float -> rounds:int -> seed:int ->
  Flowsched_switch.Instance.t

(** {1 Adversarial gadgets}

    Deterministic (no PRNG) generalizations of the paper's Figure 4
    lower-bound constructions, streamed from
    {!Flowsched_core.Lower_bounds.fig4a_general_specs} and
    {!Flowsched_core.Lower_bounds.fig4b_general_specs}. *)

val staircase_stream : m:int -> t:int -> total_rounds:int -> stream
(** Figure 4a generalized: [t] rounds of the paired diagonal load, then
    single flows per round until [total_rounds].  Requires [m >= 2] and
    [1 <= t < total_rounds]. *)

val staircase :
  m:int -> t:int -> total_rounds:int -> Flowsched_switch.Instance.t
(** The fold over [total_rounds] slots. *)

val crossflow_stream : m:int -> stream
(** Figure 4b generalized ([m >= 3]; note the instance has
    [m' = 2 (m - 1)] output ports). *)

val crossflow : m:int -> Flowsched_switch.Instance.t
(** The fold over the two rounds that release flows. *)
