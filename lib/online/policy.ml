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
   which then costs one pass over the old queue.  The pass writes into
   [spare], the array the last rebuild replaced, whenever it has the new
   length; at a steady backlog the two arrays take turns and nothing is
   allocated. *)
module Pending = struct
  type t = {
    mutable queue : Flow.t array;  (* what the last select saw *)
    mutable spare : Flow.t array;  (* the queue before it *)
    mutable removed : Bytes.t;  (* marks over [queue], at least as long *)
    mutable n_removed : int;
    mutable arrived : Flow.t list;  (* since [queue] was built, newest first *)
    mutable n_arrived : int;
    mutable discarded : int;  (* words of dropped arrays since the last slice *)
  }

  (* An array of more than 256 flows is allocated straight in the major
     heap.  Major GC work is paced by minor collections, so the less else
     a slot allocates, the longer dropped arrays pile up: at the
     1000-flow backlog of perfbench's serve-backlog, where MinRTime and
     MaxWeight take one Hungarian edge per port pair and a slot allocates
     few minor words, a slice of as many words as were replaced every
     16 Ki words let the heap peak at 5.9 MB.  Every [slice_words] words
     of arrays that became garbage (a spare of the wrong length, dropped
     for a fresh array), ask for [slice_work] times as much major work.
     A reused spare is not garbage and does not count.  serve-backlog's
     heap then peaks at 1.315 MB on seed 1 and 1.299 MB on seed 7927.
     Counting every rebuild, as before the spare was kept, holds it at
     1.167 and 1.133 MB, but a repetition then runs 602 major collections
     instead of 108 and throughput falls by a fifth. *)
  let slice_words = 4_096
  let slice_work = 8

  let create () =
    { queue = [||]; spare = [||]; removed = Bytes.empty; n_removed = 0; arrived = [];
      n_arrived = 0; discarded = 0 }

  let length t = Array.length t.queue - t.n_removed + t.n_arrived

  let push t f =
    t.arrived <- f :: t.arrived;
    t.n_arrived <- t.n_arrived + 1

  let remove t ids =
    List.iter
      (fun i ->
        if i < 0 || i >= Array.length t.queue || Bytes.get t.removed i <> '\000' then
          invalid_arg
            (Printf.sprintf "Policy.Pending.remove: index %d out of range or repeated" i);
        Bytes.set t.removed i '\001';
        t.n_removed <- t.n_removed + 1)
      ids

  let filler = Flow.make ~id:(-1) ~src:0 ~dst:0 ()

  (* The arrivals, newest first, into [q] from index [j] down. *)
  let rec place q j = function
    | [] -> ()
    | f :: rest ->
        q.(j) <- f;
        place q (j - 1) rest

  let queue t =
    if t.n_removed > 0 || t.n_arrived > 0 then begin
      let n = length t in
      let old = t.queue in
      let q =
        if Array.length t.spare = n then t.spare
        else begin
          t.discarded <- t.discarded + Array.length t.spare;
          if t.discarded >= slice_words then begin
            ignore (Gc.major_slice (slice_work * t.discarded));
            t.discarded <- 0
          end;
          Array.make n filler
        end
      in
      let k = ref 0 in
      for i = 0 to Array.length old - 1 do
        if Bytes.unsafe_get t.removed i = '\000' then begin
          Array.unsafe_set q !k (Array.unsafe_get old i);
          incr k
        end
        else Bytes.unsafe_set t.removed i '\000'
      done;
      place q (n - 1) t.arrived;
      if Bytes.length t.removed < n then
        t.removed <- Bytes.make (max n (2 * Bytes.length t.removed)) '\000';
      t.spare <- old;
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
