let n_buckets = 64

(* ------------------------------------------------------------------ *)
(* Domain-local cells behind process-global handles.                    *)
(*                                                                      *)
(* A handle is just a name plus a [Domain.DLS] key: every domain that    *)
(* touches the handle lazily materializes its own private cell, so the   *)
(* hot-path mutation ([incr], [observe]) is an unsynchronized record     *)
(* write with no cross-domain traffic.  Each domain also keeps a local   *)
(* registry (name -> cell) of the cells it materialized; [snapshot],     *)
(* [reset], and [absorb] operate on that local registry only.  The fork  *)
(* pool carries per-worker snapshots back to the coordinating domain and *)
(* [absorb]s them there, so process totals flow through the same         *)
(* associative merge algebra regardless of how work was spread out.      *)
(* ------------------------------------------------------------------ *)

type ccell = { mutable c : int }
type gcell = { mutable g : float }
type hcell = { hbuckets : int array; mutable hsum : float; mutable hcount : int }
type cell = Cc of ccell | Gc of gcell | Hc of hcell

let local_key : (string, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let local () = Domain.DLS.get local_key

type counter = { ckey : ccell Domain.DLS.key }
type gauge = { gkey : gcell Domain.DLS.key }
type histogram = { hkey : hcell Domain.DLS.key }

type handle = Ch of counter | Gh of gauge | Hh of histogram

(* Name -> handle, shared by all domains; guarded by a mutex because
   handles can be created dynamically (e.g. [absorb] of a snapshot naming
   a metric this process never registered). *)
let handles : (string, handle) Hashtbl.t = Hashtbl.create 64
let handles_mutex = Mutex.create ()

let kind_name = function Ch _ -> "counter" | Gh _ -> "gauge" | Hh _ -> "histogram"

let register name make match_kind =
  Mutex.protect handles_mutex (fun () ->
      match Hashtbl.find_opt handles name with
      | Some h -> (
          match match_kind h with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_name h)))
      | None ->
          let h = make () in
          Hashtbl.add handles name h;
          (match match_kind h with Some x -> x | None -> assert false))

(* Creating a handle also materializes its cell in the creating domain, so
   statically-registered metrics (handles made at module init, on the main
   domain) show up in that domain's snapshot at zero even if never touched
   there — a coordinator that only absorbs worker diffs (which filter
   zeros) must still report the same metric set as an inline run. *)
let counter name =
  let h =
    register name
      (fun () ->
        Ch
          {
            ckey =
              Domain.DLS.new_key (fun () ->
                  let cell = { c = 0 } in
                  Hashtbl.replace (local ()) name (Cc cell);
                  cell);
          })
      (function Ch h -> Some h | _ -> None)
  in
  ignore (Domain.DLS.get h.ckey : ccell);
  h

let gauge name =
  let h =
    register name
      (fun () ->
        Gh
          {
            gkey =
              Domain.DLS.new_key (fun () ->
                  let cell = { g = 0. } in
                  Hashtbl.replace (local ()) name (Gc cell);
                  cell);
          })
      (function Gh h -> Some h | _ -> None)
  in
  ignore (Domain.DLS.get h.gkey : gcell);
  h

let histogram name =
  let h =
    register name
      (fun () ->
        Hh
          {
            hkey =
              Domain.DLS.new_key (fun () ->
                  let cell = { hbuckets = Array.make n_buckets 0; hsum = 0.; hcount = 0 } in
                  Hashtbl.replace (local ()) name (Hc cell);
                  cell);
          })
      (function Hh h -> Some h | _ -> None)
  in
  ignore (Domain.DLS.get h.hkey : hcell);
  h

let incr ?(by = 1) h =
  let cell = Domain.DLS.get h.ckey in
  cell.c <- cell.c + by

let counter_value h = (Domain.DLS.get h.ckey).c

let add_gauge h v =
  let cell = Domain.DLS.get h.gkey in
  cell.g <- cell.g +. v

let set_gauge h v = (Domain.DLS.get h.gkey).g <- v
let gauge_value h = (Domain.DLS.get h.gkey).g

(* Bucket 0 holds non-positive values; bucket i in 1..63 holds values whose
   [frexp] exponent is i - 32, clamped at both ends.  One bucket per octave. *)
let bucket_of v =
  if v <= 0. || Float.is_nan v then 0
  else
    let _, e = Float.frexp v in
    max 1 (min (n_buckets - 1) (e + 32))

let bucket_upper_bound i = if i <= 0 then 0. else Float.ldexp 1. (i - 32)

let observe h v =
  let cell = Domain.DLS.get h.hkey in
  let b = bucket_of v in
  cell.hbuckets.(b) <- cell.hbuckets.(b) + 1;
  cell.hsum <- cell.hsum +. v;
  cell.hcount <- cell.hcount + 1

let histogram_quantile h q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg "Metrics.histogram_quantile: quantile must be in [0, 1]";
  let cell = Domain.DLS.get h.hkey in
  if cell.hcount = 0 then nan
  else begin
    (* Smallest bucket whose cumulative occupancy reaches rank ceil(q * n)
       (at least 1, so q = 0 returns the first occupied bucket's bound). *)
    let target = max 1 (int_of_float (ceil (q *. float_of_int cell.hcount))) in
    let rec go i acc =
      if i >= n_buckets then bucket_upper_bound (n_buckets - 1)
      else
        let acc = acc + cell.hbuckets.(i) in
        if acc >= target then bucket_upper_bound i else go (i + 1) acc
    in
    go 0 0
  end

let histogram_count h = (Domain.DLS.get h.hkey).hcount
let histogram_sum h = (Domain.DLS.get h.hkey).hsum

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (int * int) list; sum : float; count : int }

type snapshot = (string * value) list

let value_of = function
  | Cc h -> Counter h.c
  | Gc h -> Gauge h.g
  | Hc h ->
      let buckets = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.hbuckets.(i) <> 0 then buckets := (i, h.hbuckets.(i)) :: !buckets
      done;
      Histogram { buckets = !buckets; sum = h.hsum; count = h.hcount }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) (local ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Cc h -> h.c <- 0
      | Gc h -> h.g <- 0.
      | Hc h ->
          Array.fill h.hbuckets 0 n_buckets 0;
          h.hsum <- 0.;
          h.hcount <- 0)
    (local ())

(* Bucket lists are sorted by index; add occupancies bucket-wise. *)
let add_buckets a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ia, na) :: ta, (ib, nb) :: tb ->
        if ia < ib then (ia, na) :: go ta b
        else if ia > ib then (ib, nb) :: go a tb
        else (ia, na + nb) :: go ta tb
  in
  List.filter (fun (_, n) -> n <> 0) (go a b)

let combine name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Histogram x, Histogram y ->
      Histogram
        { buckets = add_buckets x.buckets y.buckets; sum = x.sum +. y.sum; count = x.count + y.count }
  | _ -> invalid_arg (Printf.sprintf "Metrics.merge: kind mismatch for %S" name)

let merge a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | ((na, va) as ha) :: ta, ((nb, vb) as hb) :: tb ->
        let c = String.compare na nb in
        if c < 0 then ha :: go ta b
        else if c > 0 then hb :: go a tb
        else (na, combine na va vb) :: go ta tb
  in
  go a b

let negate = function
  | Counter x -> Counter (-x)
  | Gauge x -> Gauge (-.x)
  | Histogram h ->
      Histogram
        {
          buckets = List.map (fun (i, n) -> (i, -n)) h.buckets;
          sum = -.h.sum;
          count = -h.count;
        }

let is_zero = function
  | Counter 0 -> true
  | Gauge g -> g = 0.
  | Histogram { buckets = []; count = 0; _ } -> true
  | _ -> false

let diff after before =
  merge after (List.map (fun (n, v) -> (n, negate v)) before)
  |> List.filter (fun (_, v) -> not (is_zero v))

let counter_in snap name =
  match List.assoc_opt name snap with Some (Counter n) -> n | _ -> 0

let gauge_in snap name = match List.assoc_opt name snap with Some (Gauge g) -> g | _ -> 0.

let absorb snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter x -> incr ~by:x (counter name)
      | Gauge x -> add_gauge (gauge name) x
      | Histogram { buckets; sum; count } ->
          let h = Domain.DLS.get (histogram name).hkey in
          List.iter
            (fun (i, n) -> if i >= 0 && i < n_buckets then h.hbuckets.(i) <- h.hbuckets.(i) + n)
            buckets;
          h.hsum <- h.hsum +. sum;
          h.hcount <- h.hcount + count)
    snap

let to_json snap =
  let module J = Flowsched_util.Json in
  J.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter x -> J.Int x
           | Gauge x -> J.float x
           | Histogram { buckets; sum; count } ->
               J.Obj
                 [
                   ("count", J.Int count);
                   ("sum", J.float sum);
                   ( "buckets",
                     J.Arr
                       (List.map
                          (fun (i, n) -> J.Arr [ J.float (bucket_upper_bound i); J.Int n ])
                          buckets) );
                 ] ))
       snap)

let to_text snap =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter x -> Buffer.add_string buf (Printf.sprintf "counter %s %d\n" name x)
      | Gauge x -> Buffer.add_string buf (Printf.sprintf "gauge %s %.6g\n" name x)
      | Histogram { sum; count; _ } ->
          let mean = if count = 0 then 0. else sum /. float_of_int count in
          Buffer.add_string buf
            (Printf.sprintf "histogram %s count=%d sum=%.6g mean=%.6g\n" name count sum mean))
    snap;
  Buffer.contents buf
