open Flowsched_switch

type context = {
  m : int;
  m' : int;
  cap_in : int array;
  cap_out : int array;
  round : int;
  queue : Flow.t array;
}

type t = { name : string; select : context -> int list }

let queue_graph ctx =
  Flowsched_bipartite.Bgraph.create ~nl:ctx.m ~nr:ctx.m'
    (Array.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst)) ctx.queue)

let feasible_selection ctx ids =
  let res_in = Array.copy ctx.cap_in and res_out = Array.copy ctx.cap_out in
  List.for_all
    (fun i ->
      i >= 0 && i < Array.length ctx.queue
      &&
      let f = ctx.queue.(i) in
      res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
      res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
      res_in.(f.Flow.src) >= 0 && res_out.(f.Flow.dst) >= 0)
    ids

let greedy_pack ctx order =
  let indices = Array.init (Array.length ctx.queue) (fun i -> i) in
  Array.sort (fun a b -> order ctx.queue.(a) ctx.queue.(b)) indices;
  let res_in = Array.copy ctx.cap_in and res_out = Array.copy ctx.cap_out in
  Array.fold_left
    (fun acc i ->
      let f = ctx.queue.(i) in
      if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand then begin
        res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
        res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
        i :: acc
      end
      else acc)
    [] indices
  |> List.rev

(* Survivors of [queue] keep their order and arrivals go behind them, so
   the queue stays oldest first.  Arrivals and removals are recorded as
   they happen and applied together when the next queue is asked for,
   which then costs one pass over the old queue and one array. *)
module Pending = struct
  type t = {
    mutable queue : Flow.t array;  (* what the last select saw *)
    mutable removed : Bytes.t;  (* marks over [queue], at least as long *)
    mutable n_removed : int;
    mutable arrived : Flow.t list;  (* since [queue] was built, newest first *)
    mutable n_arrived : int;
    mutable discarded : int;  (* words of replaced queues since the last slice *)
  }

  (* A queue of more than 256 flows is allocated straight in the major
     heap and is garbage one slot later.  Major GC work runs at minor
     collections, and a slot loop that allocates little else runs one only
     every hundred or so slots, so dead queues pile up in between: with a
     1000-flow backlog the heap reached 10 MB.  Every [slice_words] words
     of replaced queues, ask for the major work that frees them. *)
  let slice_words = 16_384

  let create () =
    { queue = [||]; removed = Bytes.empty; n_removed = 0; arrived = []; n_arrived = 0; discarded = 0 }

  let length t = Array.length t.queue - t.n_removed + t.n_arrived

  let push t f =
    t.arrived <- f :: t.arrived;
    t.n_arrived <- t.n_arrived + 1

  let remove t ids =
    List.iter
      (fun i ->
        if i < 0 || i >= Array.length t.queue || Bytes.get t.removed i <> '\000' then
          invalid_arg "Policy.Pending.remove: index out of range or repeated";
        Bytes.set t.removed i '\001';
        t.n_removed <- t.n_removed + 1)
      ids

  let filler = Flow.make ~id:(-1) ~src:0 ~dst:0 ()

  let queue t =
    if t.n_removed > 0 || t.n_arrived > 0 then begin
      let n = length t in
      let q = Array.make n filler in
      let k = ref 0 in
      Array.iteri
        (fun i f ->
          if Bytes.get t.removed i = '\000' then begin
            q.(!k) <- f;
            incr k
          end
          else Bytes.set t.removed i '\000')
        t.queue;
      List.iteri (fun j f -> q.(n - 1 - j) <- f) t.arrived;
      if Bytes.length t.removed < n then
        t.removed <- Bytes.make (max n (2 * Bytes.length t.removed)) '\000';
      t.discarded <- t.discarded + Array.length t.queue;
      if t.discarded >= slice_words then begin
        ignore (Gc.major_slice t.discarded);
        t.discarded <- 0
      end;
      t.queue <- q;
      t.n_removed <- 0;
      t.arrived <- [];
      t.n_arrived <- 0
    end;
    t.queue

  let to_list t =
    let acc = ref (List.rev t.arrived) in
    for i = Array.length t.queue - 1 downto 0 do
      if Bytes.get t.removed i = '\000' then acc := t.queue.(i) :: !acc
    done;
    !acc
end
