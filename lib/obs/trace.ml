type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  args : (string * Flowsched_util.Json.t) list;
}

(* The enable flag and time origin are shared by all domains (spawned
   domains inherit the trace session); the span buffer, nesting depth, and
   monotonic clamp are domain-local so recording never contends.  Executors
   [drain] their worker domains' buffers and [absorb] them into the
   coordinating domain before writing the file. *)
let on = Atomic.make false
let t0_us = Atomic.make 0.

(* The clamp lives in a float-only record, which stores its field unboxed:
   a float field of [local] would allocate a box whenever the clock
   advanced, so a caller's allocation would depend on the time. *)
type clock = { mutable last_us : float }
type local = { mutable events : span list; mutable depth : int; clock : clock }

let local_key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { events = []; depth = 0; clock = { last_us = 0. } })

let local () = Domain.DLS.get local_key

(* [Unix.gettimeofday] clamped to be non-decreasing per domain: the stdlib
   exposes no monotonic clock, and a backwards wall-clock step would
   otherwise produce negative span durations. *)
let now_us () =
  let c = (local ()).clock in
  let t = Unix.gettimeofday () *. 1e6 in
  if t > c.last_us then c.last_us <- t;
  c.last_us

let enabled () = Atomic.get on

let start () =
  let l = local () in
  l.events <- [];
  l.depth <- 0;
  l.clock.last_us <- 0.;
  Atomic.set t0_us (now_us ());
  Atomic.set on true

let stop () = Atomic.set on false

let record name cat args t_start t_end d =
  let l = local () in
  l.events <-
    {
      name;
      cat;
      ts_us = t_start -. Atomic.get t0_us;
      dur_us = t_end -. t_start;
      depth = d;
      args;
    }
    :: l.events

let with_span ?(cat = "flowsched") ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let t_start = now_us () in
    let l = local () in
    let d = l.depth in
    l.depth <- d + 1;
    Fun.protect
      ~finally:(fun () ->
        (local ()).depth <- d;
        let a = match args with None -> [] | Some mk -> mk () in
        record name cat a t_start (now_us ()) d)
      f
  end

let drain () =
  let l = local () in
  let spans = List.rev l.events in
  l.events <- [];
  spans

let absorb spans =
  let l = local () in
  l.events <- List.rev_append spans l.events

let spans () =
  List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us) (List.rev (local ()).events)

let to_json () =
  let module J = Flowsched_util.Json in
  let event s =
    let base =
      [
        ("name", J.Str s.name);
        ("cat", J.Str s.cat);
        ("ph", J.Str "X");
        ("ts", J.float s.ts_us);
        ("dur", J.float s.dur_us);
        ("pid", J.Int 1);
        ("tid", J.Int s.depth);
      ]
    in
    J.Obj (if s.args = [] then base else base @ [ ("args", J.Obj s.args) ])
  in
  J.Obj
    [
      ("traceEvents", J.Arr (List.map event (spans ())));
      ("displayTimeUnit", J.Str "ms");
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Flowsched_util.Json.to_string ~pretty:false (to_json ()));
      output_char oc '\n')
