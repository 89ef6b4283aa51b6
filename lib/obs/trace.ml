type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  args : (string * Flowsched_util.Json.t) list;
}

(* The enable flag and time origin are shared by all domains (spawned
   domains inherit the trace session); the span buffer and nesting depth
   are domain-local so recording never contends. *)
let on = Atomic.make false
let t0_us = Atomic.make 0.

type local = { mutable events : span list; mutable depth : int }

let local_key : local Domain.DLS.key = Domain.DLS.new_key (fun () -> { events = []; depth = 0 })
let local () = Domain.DLS.get local_key

(* The monotonic clock in nanoseconds: unlike wall time it never steps
   back, so no span duration or slot time can come out negative.  Inlined,
   a read boxes no float. *)
let[@inline] now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

let enabled () = Atomic.get on

let start () =
  let l = local () in
  l.events <- [];
  l.depth <- 0;
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
