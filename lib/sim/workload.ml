open Flowsched_switch
open Flowsched_util

(* Every generator is a slot-clocked stream, and its batch instance is
   DEFINED as the fold of a fresh stream over [rounds] slots ([batch]), so
   a T-slot stream prefix equals the T-round batch instance by
   construction. *)

type stream = { pull : int -> (int * int * int) list; mutable pulled : int }

let of_fn pull = { pull; pulled = 0 }
let slot s = s.pulled

let next s =
  let arrivals = s.pull s.pulled in
  s.pulled <- s.pulled + 1;
  arrivals

(* Parameter validation at the generator boundary: degenerate parameters
   would silently produce empty, NaN-weighted, or infinite-demand
   workloads — reject them loudly instead. *)
let check_pos_int ~who ~what v =
  if v < 1 then invalid_arg (Printf.sprintf "%s: %s must be >= 1" who what)

let check_pos_float ~who ~what v =
  if v <= 0. || Float.is_nan v then
    invalid_arg (Printf.sprintf "%s: %s must be positive" who what)

let check_fraction ~who ~what v =
  if not (v >= 0. && v <= 1.) then
    invalid_arg (Printf.sprintf "%s: %s must be within [0, 1]" who what)

let check_arrivals ~who ~m ~rate =
  check_pos_int ~who ~what:"m" m;
  check_pos_float ~who ~what:"rate" rate

let batch ?cap_in ?cap_out ~m ~m' ~rounds s =
  check_pos_int ~who:"Workload.batch" ~what:"rounds" rounds;
  let specs = ref [] in
  for t = 0 to rounds - 1 do
    List.iter (fun (src, dst, d) -> specs := (src, dst, d, t) :: !specs) (next s)
  done;
  Instance.of_flows ?cap_in ?cap_out ~m ~m' (List.rev !specs)

(* Poisson arrivals at a per-slot mean decided by [rate_at slot]; endpoints
   and demands decided by [draw].  The draw order inside one flow is
   load-bearing: the paper generators' original batch loops built the spec
   tuple [(src, dst, demand, t)] directly, and OCaml evaluates tuple
   components right to left, so the order is demand, then dst, then src. *)
let poisson_process g ~rate_at ~draw =
  of_fn (fun slot ->
      let mean = rate_at slot in
      let k = if mean <= 0. then 0 else Sampling.poisson g mean in
      let specs = ref [] in
      for _ = 1 to k do
        specs := draw g :: !specs
      done;
      List.rev !specs)

let draw_uniform ~m ~demand_of g =
  let demand = demand_of g in
  let dst = Prng.int g m in
  let src = Prng.int g m in
  (src, dst, demand)

let unit_demand _g = 1
(* Demand-carrying kinds set every port capacity to [max_demand], so every
   flow fits its ports.  Called after the stream's checks, so [m >= 1]. *)
let demand_caps ~m max_demand = (Array.make m max_demand, Array.make m max_demand)

(* ---- The paper's arrivals (§5.2.1) and its future-work skews ---- *)

let poisson_stream ~m ~rate ~seed =
  check_arrivals ~who:"Workload.poisson" ~m ~rate;
  poisson_process (Prng.create seed) ~rate_at:(Fun.const rate)
    ~draw:(draw_uniform ~m ~demand_of:unit_demand)

let poisson ~m ~rate ~rounds ~seed = batch ~m ~m':m ~rounds (poisson_stream ~m ~rate ~seed)

let poisson_with_demands_stream ~m ~rate ~max_demand ~seed =
  let who = "Workload.poisson_with_demands" in
  check_arrivals ~who ~m ~rate;
  check_pos_int ~who ~what:"max_demand" max_demand;
  poisson_process (Prng.create seed) ~rate_at:(Fun.const rate)
    ~draw:(draw_uniform ~m ~demand_of:(fun g -> 1 + Prng.int g max_demand))

let poisson_with_demands ~m ~rate ~rounds ~max_demand ~seed =
  let s = poisson_with_demands_stream ~m ~rate ~max_demand ~seed in
  let cap_in, cap_out = demand_caps ~m max_demand in
  batch ~cap_in ~cap_out ~m ~m':m ~rounds s

(* Sample from a Zipf(alpha) distribution over [0, m) via the inverse CDF
   of precomputed normalized weights. *)
let zipf_sampler g m alpha =
  let weights = Array.init m (fun i -> 1. /. ((float_of_int (i + 1)) ** alpha)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make m 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  fun () ->
    let u = Prng.float g in
    let rec find i = if i >= m - 1 || u <= cdf.(i) then i else find (i + 1) in
    find 0

let skewed_stream ~m ~rate ~alpha ~seed =
  check_arrivals ~who:"Workload.skewed" ~m ~rate;
  check_pos_float ~who:"Workload.skewed" ~what:"alpha" alpha;
  let g = Prng.create seed in
  let sample = zipf_sampler g m alpha in
  (* Zipf endpoints: dst draws before src. *)
  poisson_process g ~rate_at:(Fun.const rate) ~draw:(fun _g ->
      let dst = sample () in
      let src = sample () in
      (src, dst, 1))

let skewed ~m ~rate ~rounds ~alpha ~seed =
  batch ~m ~m':m ~rounds (skewed_stream ~m ~rate ~alpha ~seed)

let hotspot_stream ~m ~rate ~fraction ~seed =
  check_arrivals ~who:"Workload.hotspot" ~m ~rate;
  check_fraction ~who:"Workload.hotspot" ~what:"fraction" fraction;
  (* Incast endpoints: the dst decision (one float, plus one int draw on
     the cold path) before the src draw. *)
  poisson_process (Prng.create seed) ~rate_at:(Fun.const rate) ~draw:(fun g ->
      let dst = if Prng.float g < fraction then 0 else Prng.int g m in
      let src = Prng.int g m in
      (src, dst, 1))

let hotspot ~m ~rate ~rounds ~fraction ~seed =
  batch ~m ~m':m ~rounds (hotspot_stream ~m ~rate ~fraction ~seed)

let uniform_total ~m ~n ~max_release ~seed =
  if m < 1 || n < 0 || max_release < 0 then invalid_arg "Workload.uniform_total";
  let g = Prng.create seed in
  let specs =
    List.init n (fun _ -> (Prng.int g m, Prng.int g m, 1, Prng.int g (max_release + 1)))
  in
  Instance.of_flows ~m ~m':m specs

(* ---- Heavy-tailed demands ---- *)

let pareto_demand ~alpha ~max_demand g =
  (* Pareto(alpha) with x_min = 1: X = (1 - u)^(-1/alpha), capped. *)
  let u = Prng.float g in
  let x = (1. -. u) ** (-1. /. alpha) in
  if Float.is_nan x then max_demand else max 1 (min max_demand (int_of_float (Float.ceil x)))

let pareto_stream ~m ~rate ~alpha ~max_demand ~seed =
  let who = "Workload.pareto" in
  check_arrivals ~who ~m ~rate;
  check_pos_float ~who ~what:"alpha" alpha;
  check_pos_int ~who ~what:"max_demand" max_demand;
  poisson_process (Prng.create seed) ~rate_at:(Fun.const rate)
    ~draw:(draw_uniform ~m ~demand_of:(pareto_demand ~alpha ~max_demand))

let pareto ~m ~rate ~alpha ~max_demand ~rounds ~seed =
  let s = pareto_stream ~m ~rate ~alpha ~max_demand ~seed in
  let cap_in, cap_out = demand_caps ~m max_demand in
  batch ~cap_in ~cap_out ~m ~m':m ~rounds s

let lognormal_demand ~mu ~sigma ~max_demand g =
  (* Box–Muller (cosine branch); u1 shifted into (0, 1] so log is finite. *)
  let u1 = 1. -. Prng.float g in
  let u2 = Prng.float g in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  let x = exp (mu +. (sigma *. z)) in
  if Float.is_nan x then 1 else max 1 (min max_demand (int_of_float (Float.round x)))

let lognormal_stream ~m ~rate ~mu ~sigma ~max_demand ~seed =
  let who = "Workload.lognormal" in
  check_arrivals ~who ~m ~rate;
  check_pos_float ~who ~what:"sigma" sigma;
  check_pos_int ~who ~what:"max_demand" max_demand;
  poisson_process (Prng.create seed) ~rate_at:(Fun.const rate)
    ~draw:(draw_uniform ~m ~demand_of:(lognormal_demand ~mu ~sigma ~max_demand))

let lognormal ~m ~rate ~mu ~sigma ~max_demand ~rounds ~seed =
  let s = lognormal_stream ~m ~rate ~mu ~sigma ~max_demand ~seed in
  let cap_in, cap_out = demand_caps ~m max_demand in
  batch ~cap_in ~cap_out ~m ~m':m ~rounds s

(* ---- Modulated arrival processes (unit demands) ---- *)

let bursty_stream ~m ~rate ~burst ~period ~duty ~seed =
  let who = "Workload.bursty" in
  check_arrivals ~who ~m ~rate;
  check_pos_float ~who ~what:"burst" burst;
  check_pos_int ~who ~what:"period" period;
  check_fraction ~who ~what:"duty" duty;
  (* Deterministic duty cycle: the first [duty] share of each period runs
     hot at [rate * burst]; the rest idles at the base rate. *)
  let on_slots = int_of_float (Float.ceil (duty *. float_of_int period)) in
  poisson_process (Prng.create seed)
    ~rate_at:(fun slot -> if slot mod period < on_slots then rate *. burst else rate)
    ~draw:(draw_uniform ~m ~demand_of:unit_demand)

let bursty ~m ~rate ~burst ~period ~duty ~rounds ~seed =
  batch ~m ~m':m ~rounds (bursty_stream ~m ~rate ~burst ~period ~duty ~seed)

let diurnal_stream ~m ~rate ~period ~amplitude ~seed =
  let who = "Workload.diurnal" in
  check_arrivals ~who ~m ~rate;
  check_pos_int ~who ~what:"period" period;
  check_fraction ~who ~what:"amplitude" amplitude;
  poisson_process (Prng.create seed)
    ~rate_at:(fun slot ->
      rate
      *. (1.
         +. (amplitude
            *. sin (2. *. Float.pi *. float_of_int slot /. float_of_int period))))
    ~draw:(draw_uniform ~m ~demand_of:unit_demand)

let diurnal ~m ~rate ~period ~amplitude ~rounds ~seed =
  batch ~m ~m':m ~rounds (diurnal_stream ~m ~rate ~period ~amplitude ~seed)

(* ---- Flash crowd: a spike window with an incast hotspot ---- *)

let flash_crowd_stream ~m ~rate ~at ~len ~mult ~fraction ~seed =
  let who = "Workload.flash_crowd" in
  check_arrivals ~who ~m ~rate;
  if at < 0 then invalid_arg (who ^ ": at must be >= 0");
  check_pos_int ~who ~what:"len" len;
  check_pos_float ~who ~what:"mult" mult;
  check_fraction ~who ~what:"fraction" fraction;
  let g = Prng.create seed in
  let in_spike slot = slot >= at && slot < at + len in
  of_fn (fun slot ->
      let mean = if in_spike slot then rate *. mult else rate in
      let k = Sampling.poisson g mean in
      let specs = ref [] in
      for _ = 1 to k do
        (* During the spike a [fraction] of flows pile onto output 0; the
           dst decision draws before src, like the hotspot generator. *)
        let dst =
          if in_spike slot && Prng.float g < fraction then 0 else Prng.int g m
        in
        let src = Prng.int g m in
        specs := (src, dst, 1) :: !specs
      done;
      List.rev !specs)

let flash_crowd ~m ~rate ~at ~len ~mult ~fraction ~rounds ~seed =
  batch ~m ~m':m ~rounds (flash_crowd_stream ~m ~rate ~at ~len ~mult ~fraction ~seed)

(* ---- Bimodal port popularity: beyond Zipf ---- *)

let bimodal_stream ~m ~rate ~hot ~weight ~seed =
  let who = "Workload.bimodal" in
  check_arrivals ~who ~m ~rate;
  if hot < 1 || hot > m then invalid_arg (who ^ ": hot must be within [1, m]");
  check_fraction ~who ~what:"weight" weight;
  let g = Prng.create seed in
  (* A two-point popularity distribution: mass [weight] spread over the
     [hot] lowest-numbered ports, the rest uniform over all ports — a
     sharper skew than any Zipf tail.  dst draws before src, like the
     skewed generator. *)
  let pick () = if Prng.float g < weight then Prng.int g hot else Prng.int g m in
  poisson_process g ~rate_at:(Fun.const rate) ~draw:(fun _g ->
      let dst = pick () in
      let src = pick () in
      (src, dst, 1))

let bimodal ~m ~rate ~hot ~weight ~rounds ~seed =
  batch ~m ~m':m ~rounds (bimodal_stream ~m ~rate ~hot ~weight ~seed)

(* ---- Adversarial gadgets (deterministic; see Lower_bounds) ---- *)

let staircase_stream ~m ~t ~total_rounds =
  if m < 2 then invalid_arg "Workload.staircase: m must be >= 2";
  if t < 1 || t >= total_rounds then
    invalid_arg "Workload.staircase: need 1 <= t < total_rounds";
  of_fn (Flowsched_core.Lower_bounds.fig4a_general_specs ~m ~t ~total_rounds)

let staircase ~m ~t ~total_rounds =
  batch ~m ~m':m ~rounds:total_rounds (staircase_stream ~m ~t ~total_rounds)

let crossflow_stream ~m =
  if m < 3 then invalid_arg "Workload.crossflow: m must be >= 3";
  of_fn (Flowsched_core.Lower_bounds.fig4b_general_specs ~m)

(* Every crossflow flow is released in rounds 0 and 1. *)
let crossflow ~m = batch ~m ~m':(2 * (m - 1)) ~rounds:2 (crossflow_stream ~m)
