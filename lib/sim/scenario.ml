type kind =
  | Poisson
  | Poisson_demands
  | Uniform_total
  | Skewed of float
  | Hotspot of float
  | Pareto of float
  | Lognormal of { mu : float; sigma : float }
  | Bursty of { burst : float; period : int; duty : float }
  | Diurnal of { period : int; amplitude : float }
  | Flash_crowd of { at : int; len : int; mult : float; fraction : float }
  | Bimodal of { hot : int; weight : float }
  | Staircase
  | Crossflow

type spec = {
  kind : kind;
  m : int;
  rate : float;
  rounds : int;
  max_demand : int;
  seed : int;
}

let names =
  [
    "poisson"; "poisson-demands"; "uniform"; "skewed"; "hotspot"; "pareto";
    "lognormal"; "bursty"; "diurnal"; "flash-crowd"; "bimodal"; "staircase";
    "crossflow";
  ]

(* One of_string/to_string pair next to the kind type: the CLI (generate,
   serve, sweep, merge, matrix) and the sweep cells parse workload kinds
   through here, so a kind's name and parameters are read in exactly one
   place.  Syntax is
   "name[:p1[:p2...]]"; omitted parameters take the defaults encoded below,
   and [to_string] always prints the full parameter list, so
   [of_string (to_string k) = Ok k]. *)

let float_param ~kind s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: bad numeric parameter %S" kind s)

let int_param ~kind s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: bad integer parameter %S" kind s)

let of_string s =
  let name, params =
    match String.split_on_char ':' s with
    | name :: rest -> (name, rest)
    | [] -> (s, [])
  in
  let f = float_param ~kind:name and i = int_param ~kind:name in
  try
    match (name, params) with
    | "poisson", [] -> Ok Poisson
    | ("poisson-demands" | "demands"), [] -> Ok Poisson_demands
    | "uniform", [] -> Ok Uniform_total
    | "skewed", [] -> Ok (Skewed 1.0)
    | "skewed", [ a ] -> Ok (Skewed (f a))
    | "hotspot", [] -> Ok (Hotspot 0.5)
    | "hotspot", [ fr ] -> Ok (Hotspot (f fr))
    | "pareto", [] -> Ok (Pareto 1.5)
    | "pareto", [ a ] -> Ok (Pareto (f a))
    | "lognormal", [] -> Ok (Lognormal { mu = 0.5; sigma = 0.75 })
    | "lognormal", [ mu ] -> Ok (Lognormal { mu = f mu; sigma = 0.75 })
    | "lognormal", [ mu; sigma ] -> Ok (Lognormal { mu = f mu; sigma = f sigma })
    | "bursty", [] -> Ok (Bursty { burst = 4.0; period = 20; duty = 0.25 })
    | "bursty", [ b ] -> Ok (Bursty { burst = f b; period = 20; duty = 0.25 })
    | "bursty", [ b; p ] -> Ok (Bursty { burst = f b; period = i p; duty = 0.25 })
    | "bursty", [ b; p; d ] -> Ok (Bursty { burst = f b; period = i p; duty = f d })
    | "diurnal", [] -> Ok (Diurnal { period = 50; amplitude = 0.8 })
    | "diurnal", [ p ] -> Ok (Diurnal { period = i p; amplitude = 0.8 })
    | "diurnal", [ p; a ] -> Ok (Diurnal { period = i p; amplitude = f a })
    | "flash-crowd", [] ->
        Ok (Flash_crowd { at = 20; len = 10; mult = 5.0; fraction = 0.5 })
    | "flash-crowd", [ at ] ->
        Ok (Flash_crowd { at = i at; len = 10; mult = 5.0; fraction = 0.5 })
    | "flash-crowd", [ at; len ] ->
        Ok (Flash_crowd { at = i at; len = i len; mult = 5.0; fraction = 0.5 })
    | "flash-crowd", [ at; len; mult ] ->
        Ok (Flash_crowd { at = i at; len = i len; mult = f mult; fraction = 0.5 })
    | "flash-crowd", [ at; len; mult; fr ] ->
        Ok (Flash_crowd { at = i at; len = i len; mult = f mult; fraction = f fr })
    | "bimodal", [] -> Ok (Bimodal { hot = 2; weight = 0.8 })
    | "bimodal", [ h ] -> Ok (Bimodal { hot = i h; weight = 0.8 })
    | "bimodal", [ h; w ] -> Ok (Bimodal { hot = i h; weight = f w })
    | "staircase", [] -> Ok Staircase
    | "crossflow", [] -> Ok Crossflow
    | ( ( "poisson" | "poisson-demands" | "demands" | "uniform" | "skewed"
        | "hotspot" | "pareto" | "lognormal" | "bursty" | "diurnal"
        | "flash-crowd" | "bimodal" | "staircase" | "crossflow" ),
        _ ) ->
        Error (Printf.sprintf "workload %S: wrong number of parameters" s)
    | _ ->
        Error
          (Printf.sprintf "unknown workload %S (expected %s)" s
             (String.concat "|" names))
  with Failure msg -> Error msg

let of_string_exn s =
  match of_string s with Ok k -> k | Error msg -> invalid_arg ("Scenario.of_string: " ^ msg)

let to_string = function
  | Poisson -> "poisson"
  | Poisson_demands -> "poisson-demands"
  | Uniform_total -> "uniform"
  | Skewed alpha -> Printf.sprintf "skewed:%g" alpha
  | Hotspot fraction -> Printf.sprintf "hotspot:%g" fraction
  | Pareto alpha -> Printf.sprintf "pareto:%g" alpha
  | Lognormal { mu; sigma } -> Printf.sprintf "lognormal:%g:%g" mu sigma
  | Bursty { burst; period; duty } -> Printf.sprintf "bursty:%g:%d:%g" burst period duty
  | Diurnal { period; amplitude } -> Printf.sprintf "diurnal:%d:%g" period amplitude
  | Flash_crowd { at; len; mult; fraction } ->
      Printf.sprintf "flash-crowd:%d:%d:%g:%g" at len mult fraction
  | Bimodal { hot; weight } -> Printf.sprintf "bimodal:%d:%g" hot weight
  | Staircase -> "staircase"
  | Crossflow -> "crossflow"

(* The staircase gadget derives its step count from the horizon so a spec's
   (m, rounds) fully determines the instance. *)
let staircase_params spec =
  let total_rounds = max 2 spec.rounds in
  let t = max 1 (min (total_rounds - 1) (total_rounds / 2)) in
  (t, total_rounds)

let geometry spec =
  match spec.kind with
  | Crossflow -> (spec.m, 2 * (spec.m - 1))
  | _ -> (spec.m, spec.m)

let port_capacity spec =
  match spec.kind with
  | Poisson_demands | Pareto _ | Lognormal _ -> spec.max_demand
  | _ -> 1

let instance spec =
  let { kind; m; rate; rounds; max_demand; seed } = spec in
  match kind with
  | Poisson -> Workload.poisson ~m ~rate ~rounds ~seed
  | Poisson_demands -> Workload.poisson_with_demands ~m ~rate ~rounds ~max_demand ~seed
  | Uniform_total ->
      (* Same expected volume as the arrival processes: rate * rounds flows. *)
      let n = max 1 (int_of_float (rate *. float_of_int rounds)) in
      Workload.uniform_total ~m ~n ~max_release:rounds ~seed
  | Skewed alpha -> Workload.skewed ~m ~rate ~rounds ~alpha ~seed
  | Hotspot fraction -> Workload.hotspot ~m ~rate ~rounds ~fraction ~seed
  | Pareto alpha -> Workload.pareto ~m ~rate ~alpha ~max_demand ~rounds ~seed
  | Lognormal { mu; sigma } -> Workload.lognormal ~m ~rate ~mu ~sigma ~max_demand ~rounds ~seed
  | Bursty { burst; period; duty } ->
      Workload.bursty ~m ~rate ~burst ~period ~duty ~rounds ~seed
  | Diurnal { period; amplitude } -> Workload.diurnal ~m ~rate ~period ~amplitude ~rounds ~seed
  | Flash_crowd { at; len; mult; fraction } ->
      Workload.flash_crowd ~m ~rate ~at ~len ~mult ~fraction ~rounds ~seed
  | Bimodal { hot; weight } -> Workload.bimodal ~m ~rate ~hot ~weight ~rounds ~seed
  | Staircase ->
      let t, total_rounds = staircase_params spec in
      Workload.staircase ~m ~t ~total_rounds
  | Crossflow -> Workload.crossflow ~m

let stream spec =
  let { kind; m; rate; rounds = _; max_demand; seed } = spec in
  match kind with
  | Uniform_total ->
      Error "workload \"uniform\" draws releases out of slot order; it has no stream form"
  | Poisson -> Ok (Workload.poisson_stream ~m ~rate ~seed)
  | Poisson_demands -> Ok (Workload.poisson_with_demands_stream ~m ~rate ~max_demand ~seed)
  | Skewed alpha -> Ok (Workload.skewed_stream ~m ~rate ~alpha ~seed)
  | Hotspot fraction -> Ok (Workload.hotspot_stream ~m ~rate ~fraction ~seed)
  | Pareto alpha -> Ok (Workload.pareto_stream ~m ~rate ~alpha ~max_demand ~seed)
  | Lognormal { mu; sigma } ->
      Ok (Workload.lognormal_stream ~m ~rate ~mu ~sigma ~max_demand ~seed)
  | Bursty { burst; period; duty } ->
      Ok (Workload.bursty_stream ~m ~rate ~burst ~period ~duty ~seed)
  | Diurnal { period; amplitude } ->
      Ok (Workload.diurnal_stream ~m ~rate ~period ~amplitude ~seed)
  | Flash_crowd { at; len; mult; fraction } ->
      Ok (Workload.flash_crowd_stream ~m ~rate ~at ~len ~mult ~fraction ~seed)
  | Bimodal { hot; weight } -> Ok (Workload.bimodal_stream ~m ~rate ~hot ~weight ~seed)
  | Staircase ->
      let t, total_rounds = staircase_params spec in
      Ok (Workload.staircase_stream ~m ~t ~total_rounds)
  | Crossflow -> Ok (Workload.crossflow_stream ~m)
