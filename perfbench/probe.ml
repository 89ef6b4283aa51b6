(* Measurement plumbing kept outside the program under test: a monotonic
   nanosecond clock, per-slot latency samples, spans recorded around the
   benchmark's calls into each layer, per-repetition layer accumulators, and
   the output checks.  Sample and span storage lives in Bigarrays, outside
   the OCaml heap, so it never shows up in the heap high-water mark. *)

module A1 = Bigarray.Array1

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* Growable off-heap vectors. *)
let grow_float a n =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (2 * n) in
  A1.blit a (A1.sub b 0 n);
  b

let grow_int a n =
  let b = A1.create Bigarray.int Bigarray.c_layout (2 * n) in
  A1.blit a (A1.sub b 0 n);
  b

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Slot latency: the interval between two consecutive per-slot callbacks
   into benchmark code, in microseconds. *)
module Lat = struct
  let buf = ref (A1.create Bigarray.float64 Bigarray.c_layout 65536)
  let len = ref 0
  let last = ref (-1)

  let clear () =
    len := 0;
    last := -1

  let push us =
    if !len = A1.dim !buf then buf := grow_float !buf !len;
    A1.unsafe_set !buf !len us;
    incr len

  let mark () =
    let t = now_ns () in
    if !last >= 0 then push (float_of_int (t - !last) *. 1e-3);
    last := t

  (* The samples taken since [clear], in an off-heap array of their own. *)
  let copy () : floats =
    let c = A1.create Bigarray.float64 Bigarray.c_layout !len in
    A1.blit (A1.sub !buf 0 !len) c;
    c
end

(* Spans: name, start, end, parent and operation id.  Off by default; a
   disabled [with_] is one load and a call. *)
module Span = struct
  let enabled = ref false
  let cap = ref 4096
  let make () = A1.create Bigarray.int Bigarray.c_layout !cap
  let name = ref (make ())
  let start = ref (make ())
  let stop = ref (make ())
  let parent = ref (make ())
  let opid = ref (make ())
  let len = ref 0
  let current = ref (-1)
  let op = ref 0
  let ids : (string, int) Hashtbl.t = Hashtbl.create 32
  let names = ref [||]

  let id_of s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids s i;
        names := Array.append !names [| s |];
        i

  let clear () =
    len := 0;
    current := -1

  (* Operations (a serve run, a cell, an instance) number the spans they
     cover. *)
  let next_op () = incr op

  let alloc () =
    if !len = !cap then begin
      List.iter (fun a -> a := grow_int !a !cap) [ name; start; stop; parent; opid ];
      cap := 2 * !cap
    end;
    let i = !len in
    incr len;
    i

  let with_ label f =
    if not !enabled then f ()
    else begin
      let i = alloc () in
      A1.unsafe_set !name i (id_of label);
      A1.unsafe_set !parent i !current;
      A1.unsafe_set !opid i !op;
      let saved = !current in
      current := i;
      A1.unsafe_set !start i (now_ns ());
      let finish () =
        A1.unsafe_set !stop i (now_ns ());
        current := saved
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  type total = { count : int; total_s : float; self_s : float }

  let dur i = secs_between (A1.get !start i) (A1.get !stop i)

  (* Per-name totals.  Self time is a span's duration minus the time its
     children cover; children are nested and sequential, so that is the sum
     of their durations. *)
  let totals () =
    let n = !len in
    let child = Array.make n 0. in
    for i = 0 to n - 1 do
      let p = A1.get !parent i in
      if p >= 0 then child.(p) <- child.(p) +. dur i
    done;
    let acc = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      let label = !names.(A1.get !name i) in
      let c, t, s = Option.value (Hashtbl.find_opt acc label) ~default:(0, 0., 0.) in
      Hashtbl.replace acc label (c + 1, t +. dur i, s +. dur i -. child.(i))
    done;
    Hashtbl.fold (fun k (count, total_s, self_s) l -> (k, { count; total_s; self_s }) :: l) acc []

  (* Time covered by spans that have no parent. *)
  let root_total () =
    let t = ref 0. in
    for i = 0 to !len - 1 do
      if A1.get !parent i < 0 then t := !t +. dur i
    done;
    !t

  (* Append the recorded spans to [path] as tab-separated rows. *)
  let append path =
    let fresh = not (Sys.file_exists path) in
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644 path in
    if fresh then output_string oc "index\top\tname\tstart_ns\tend_ns\tparent\n";
    for i = 0 to !len - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" i (A1.get !opid i)
        !names.(A1.get !name i) (A1.get !start i) (A1.get !stop i) (A1.get !parent i)
    done;
    close_out oc
end

(* Per-repetition accumulators for layer counts and replay timings. *)
module Layer = struct
  let table : (string, float) Hashtbl.t = Hashtbl.create 32
  let reset () = Hashtbl.reset table
  let get name = Option.value (Hashtbl.find_opt table name) ~default:0.
  let add name v = Hashtbl.replace table name (v +. get name)
  let addi name v = add name (float_of_int v)
  let to_list () = Hashtbl.fold (fun k v l -> (k, v) :: l) table []

  (* Time [f] into [name], in seconds. *)
  let time name f =
    let t0 = now_ns () in
    let r = f () in
    add name (secs_between t0 (now_ns ()));
    r
end

(* The program's own metrics registry, read by name. *)
module Registry = struct
  module M = Flowsched_obs.Metrics

  let value snap name =
    match List.assoc_opt name snap with
    | Some (M.Counter c) -> float_of_int c
    | Some (M.Gauge g) -> g
    | Some (M.Histogram { sum; _ }) -> sum
    | None -> 0.

  (* Run [f] and, when tracing, add the registry change of each [(registry
     name, layer name)] pair into [Layer]. *)
  let into_layer pairs f =
    if not !Span.enabled then f ()
    else begin
      let before = M.snapshot () in
      let r = f () in
      let after = M.snapshot () in
      List.iter (fun (name, layer) -> Layer.add layer (value after name -. value before name)) pairs;
      r
    end
end

(* Output checks: a failed check is a failed operation, never a crash. *)
module Check = struct
  let failures : string list ref = ref []
  let fail msg = failures := msg :: !failures
  let expect cond msg = if not cond then fail (Lazy.force msg)

  let take () =
    let l = List.rev !failures in
    failures := [];
    l
end
