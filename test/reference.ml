(* Reference implementations the tests pin the library to: the Hungarian
   algorithm on array-of-arrays matrices allocated per call, and the
   matching policies' selection built from explicit graphs
   ([Policy.queue_graph], then [Bmatching.expand]).  The library computes
   the same results in one pass over reused buffers; the tests compare
   the two edge for edge, order included, because the heuristics'
   schedules depend on which of several maximum matchings comes out. *)

open Flowsched_switch
open Flowsched_bipartite
open Flowsched_online

(* 1-indexed arrays as in the classic potentials formulation.  [a] is
   (n+1) x (n+1) with row/column 0 unused.  Returns [p] where p.(j) = row
   assigned to column j. *)
let hungarian_min n a =
  let inf = infinity in
  let u = Array.make (n + 1) 0. and v = Array.make (n + 1) 0. in
  let p = Array.make (n + 1) 0 and way = Array.make (n + 1) 0 in
  for i = 1 to n do
    p.(0) <- i;
    let j0 = ref 0 in
    let minv = Array.make (n + 1) inf in
    let used = Array.make (n + 1) false in
    let continue = ref true in
    while !continue do
      used.(!j0) <- true;
      let i0 = p.(!j0) in
      let delta = ref inf and j1 = ref (-1) in
      for j = 1 to n do
        if not used.(j) then begin
          let cur = a.(i0).(j) -. u.(i0) -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      for j = 0 to n do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then continue := false
    done;
    let j = ref !j0 in
    while !j <> 0 do
      let j1 = way.(!j) in
      p.(!j) <- p.(j1);
      j := j1
    done
  done;
  p

let max_weight (g : Bgraph.t) w =
  let ne = Bgraph.num_edges g in
  if ne = 0 then []
  else begin
    let lmap = Array.make g.Bgraph.nl (-1) and rmap = Array.make g.Bgraph.nr (-1) in
    let nl = ref 0 and nr = ref 0 in
    Array.iter
      (fun { Bgraph.u; v } ->
        if lmap.(u) = -1 then begin
          lmap.(u) <- !nl;
          incr nl
        end;
        if rmap.(v) = -1 then begin
          rmap.(v) <- !nr;
          incr nr
        end)
      g.Bgraph.edges;
    let n = max !nl !nr in
    let best_w = Array.make_matrix n n 0. in
    let best_e = Array.make_matrix n n (-1) in
    for e = 0 to ne - 1 do
      let { Bgraph.u; v } = Bgraph.edge g e in
      let i = lmap.(u) and j = rmap.(v) in
      if w.(e) >= 0. && (best_e.(i).(j) = -1 || w.(e) > best_w.(i).(j)) then begin
        best_w.(i).(j) <- w.(e);
        best_e.(i).(j) <- e
      end
    done;
    let wmax = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0. best_w in
    let a = Array.make_matrix (n + 1) (n + 1) 0. in
    for i = 1 to n do
      for j = 1 to n do
        a.(i).(j) <- wmax -. best_w.(i - 1).(j - 1)
      done
    done;
    let p = hungarian_min n a in
    let result = ref [] in
    for j = 1 to n do
      let i = p.(j) in
      if i >= 1 then begin
        let e = best_e.(i - 1).(j - 1) in
        if e >= 0 then result := e :: !result
      end
    done;
    !result
  end

let expanded_graph (ctx : Policy.context) =
  (Bmatching.expand (Policy.queue_graph ctx) ~cl:ctx.Policy.cap_in ~cr:ctx.Policy.cap_out)
    .Bmatching.graph

let admit_feasible (ctx : Policy.context) candidates =
  let res_in = Array.copy ctx.Policy.cap_in and res_out = Array.copy ctx.Policy.cap_out in
  List.filter
    (fun i ->
      let f = ctx.Policy.queue.(i) in
      if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand then begin
        res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
        res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
        true
      end
      else false)
    candidates

let maxcard (ctx : Policy.context) =
  if Array.length ctx.Policy.queue = 0 then []
  else admit_feasible ctx (Matching.max_cardinality (expanded_graph ctx))

let weighted_select (ctx : Policy.context) weights =
  if Array.length ctx.Policy.queue = 0 then []
  else begin
    let matched = max_weight (expanded_graph ctx) weights in
    admit_feasible ctx (List.sort (fun a b -> compare weights.(b) weights.(a)) matched)
  end

(* MinRTime: waiting time plus one. *)
let minrtime (ctx : Policy.context) =
  weighted_select ctx
    (Array.map
       (fun (f : Flow.t) -> float_of_int (ctx.Policy.round - f.Flow.release + 1))
       ctx.Policy.queue)

(* MaxWeight: the queue lengths at both ports. *)
let maxweight (ctx : Policy.context) =
  let qin = Array.make ctx.Policy.m 0 and qout = Array.make ctx.Policy.m' 0 in
  Array.iter
    (fun (f : Flow.t) ->
      qin.(f.Flow.src) <- qin.(f.Flow.src) + 1;
      qout.(f.Flow.dst) <- qout.(f.Flow.dst) + 1)
    ctx.Policy.queue;
  weighted_select ctx
    (Array.map (fun (f : Flow.t) -> float_of_int (qin.(f.Flow.src) + qout.(f.Flow.dst))) ctx.Policy.queue)
