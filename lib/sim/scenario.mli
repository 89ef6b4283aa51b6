(** Scenario specifications: one string-keyed namespace over every workload
    generator in {!Workload}.

    A {!kind} names a generator with its shape parameters; a {!spec} adds
    the scale parameters every generator shares (ports, rate, horizon,
    demand bound, seed).

    {!of_string}/{!to_string} are THE workload-kind parser: the CLI
    ([generate], [serve], [sweep], [merge], [matrix]) and
    {!Experiment.grid} all go through this pair, so adding a kind
    means extending the variant, these two functions, {!instance} and
    {!stream} — nothing else. *)

type kind =
  | Poisson  (** {!Workload.poisson}. *)
  | Poisson_demands
      (** {!Workload.poisson_with_demands} (uses the spec's [max_demand]). *)
  | Uniform_total
      (** {!Workload.uniform_total} with [n = rate * rounds] — batch-only
          (releases are drawn out of slot order). *)
  | Skewed of float  (** {!Workload.skewed} with the given alpha. *)
  | Hotspot of float  (** {!Workload.hotspot} with the given fraction. *)
  | Pareto of float  (** {!Workload.pareto} with the given alpha. *)
  | Lognormal of { mu : float; sigma : float }  (** {!Workload.lognormal}. *)
  | Bursty of { burst : float; period : int; duty : float }  (** {!Workload.bursty}. *)
  | Diurnal of { period : int; amplitude : float }  (** {!Workload.diurnal}. *)
  | Flash_crowd of { at : int; len : int; mult : float; fraction : float }
      (** {!Workload.flash_crowd}. *)
  | Bimodal of { hot : int; weight : float }  (** {!Workload.bimodal}. *)
  | Staircase
      (** {!Workload.staircase} (Figure 4a generalized); [t] is derived from
          the spec's horizon as [max 1 (rounds / 2)]. *)
  | Crossflow
      (** {!Workload.crossflow} (Figure 4b generalized); ignores rate and
          horizon, and has [m' = 2 (m - 1)]. *)

type spec = {
  kind : kind;
  m : int;  (** Ports per side. *)
  rate : float;  (** Arrival rate (the paper's M); ignored by the gadgets. *)
  rounds : int;  (** Generation horizon T. *)
  max_demand : int;  (** Demand bound for the demand-carrying kinds. *)
  seed : int;
}

val names : string list
(** Canonical kind names accepted by {!of_string}. *)

val of_string : string -> (kind, string) result
(** Parse ["name[:p1[:p2...]]"] — e.g. ["pareto:1.2"],
    ["bursty:4:20:0.25"], ["flash-crowd:20:10:5:0.5"].  Omitted parameters
    take documented defaults; ["demands"] is an alias for
    ["poisson-demands"].  [of_string (to_string k) = Ok k]. *)

val of_string_exn : string -> kind
(** Raises [Invalid_argument] with the parse error. *)

val to_string : kind -> string
(** Canonical full-parameter form. *)

val geometry : spec -> int * int
(** The [(m, m')] switch geometry of the generated traffic — [(m, m)] for
    every kind except Crossflow, which is [(m, 2 (m - 1))]. *)

val port_capacity : spec -> int
(** The per-port capacity the generated instance carries: [max_demand] for
    the demand-carrying kinds (Poisson_demands, Pareto, Lognormal), 1
    otherwise — what a server must configure to admit the stream's flows. *)

val instance : spec -> Flowsched_switch.Instance.t
(** The batch instance.  Deterministic in the spec; raises
    [Invalid_argument] on degenerate parameters (see {!Workload}). *)

val stream : spec -> (Workload.stream, string) result
(** The kind's unbounded slot-clocked stream: draining the spec's [rounds]
    slots yields exactly the specs of {!instance} on the same spec (the
    prefix property).  [Error] for the batch-only kind (Uniform_total);
    raises [Invalid_argument] on degenerate parameters. *)
