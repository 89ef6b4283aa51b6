(* Reference implementations the tests pin the library to: the Hungarian
   algorithm on array-of-arrays matrices allocated per call, the matching
   policies' selection built from explicit graphs ([Policy.queue_graph],
   then [Bmatching.expand]), and the sparse LU on per-column arrays.  The
   library computes the same results in one pass over reused buffers; the
   tests compare the two edge for edge, order included, because the
   heuristics' schedules depend on which of several maximum matchings
   comes out, and bit for bit for the LU, because the simplex's pivots
   depend on every rounding of its solves. *)

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

(* The sparse LU as the simplex used it before its factors moved into
   flat, reused storage: [factorize ~m ~col] reads slot [s]'s column as
   the parallel arrays [col s] and allocates a fresh factorization. *)
module Sparse_lu = struct
  exception Singular

  type t = {
    m : int;
    l_idx : int array array; (* per pivot k: pivot coords i > k, unit diagonal *)
    l_val : float array array;
    u_idx : int array array; (* per pivot k: pivot coords i < k *)
    u_val : float array array;
    u_diag : float array;
    p : int array; (* pivot position -> original row *)
    q : int array; (* pivot position -> column slot *)
    z : float array; (* scratch for the triangular solves *)
    nnz : int;
  }

  (* Threshold partial pivoting: rows within [threshold] of the column maximum
     are eligible, and sparsity (static row count) picks among them. *)
  let threshold = 0.1

  let empty = { m = 0; l_idx = [||]; l_val = [||]; u_idx = [||]; u_val = [||];
                u_diag = [||]; p = [||]; q = [||]; z = [||]; nnz = 0 }

  let factorize ~m ~col =
    if m = 0 then empty
    else begin
      let cols = Array.init m col in
      let row_count = Array.make m 0 in
      Array.iter
        (fun (ri, _) ->
          Array.iter
            (fun r ->
              if r < 0 || r >= m then invalid_arg "Sparse_lu.factorize: row out of range";
              row_count.(r) <- row_count.(r) + 1)
            ri)
        cols;
      (* Static Markowitz approximation: eliminate thin columns first. *)
      let order = Array.init m (fun s -> s) in
      Array.sort
        (fun a b ->
          let c = compare (Array.length (fst cols.(a))) (Array.length (fst cols.(b))) in
          if c <> 0 then c else compare a b)
        order;
      let pinv = Array.make m (-1) in
      let p = Array.make m (-1) and q = Array.make m (-1) in
      let u_diag = Array.make m 0. in
      (* L columns are indexed by original row during elimination (the DFS
         walks original rows); they are remapped to pivot coordinates once the
         row permutation is complete. *)
      let l_idx = Array.make m [||] and l_val = Array.make m [||] in
      let u_idx = Array.make m [||] and u_val = Array.make m [||] in
      let x = Array.make m 0. in
      let mark = Array.make m (-1) in
      let topo = Array.make m 0 in
      let stack = Array.make m 0 in
      let sptr = Array.make m 0 in
      let nnz = ref m in
      for k = 0 to m - 1 do
        let s = order.(k) in
        let crows, cvals = cols.(s) in
        if Array.length crows = 0 then raise Singular;
        (* Symbolic step: the nonzero pattern of L^-1 A_s is the set of rows
           reachable from the column's rows through already-eliminated L
           columns; a DFS postorder gives it in topological order. *)
        let top = ref m in
        for e = 0 to Array.length crows - 1 do
          let seed = crows.(e) in
          if mark.(seed) <> k then begin
            let depth = ref 0 in
            stack.(0) <- seed;
            sptr.(0) <- 0;
            mark.(seed) <- k;
            while !depth >= 0 do
              let v = stack.(!depth) in
              let j = pinv.(v) in
              let children = if j >= 0 then l_idx.(j) else [||] in
              let nc = Array.length children in
              let cur = ref sptr.(!depth) in
              while !cur < nc && mark.(children.(!cur)) = k do
                incr cur
              done;
              if !cur < nc then begin
                let c = children.(!cur) in
                sptr.(!depth) <- !cur + 1;
                mark.(c) <- k;
                incr depth;
                stack.(!depth) <- c;
                sptr.(!depth) <- 0
              end
              else begin
                decr top;
                topo.(!top) <- v;
                decr depth
              end
            done
          end
        done;
        (* Numeric step: scatter the column and eliminate in reverse
           postorder (dependencies first). *)
        for e = 0 to Array.length crows - 1 do
          x.(crows.(e)) <- x.(crows.(e)) +. cvals.(e)
        done;
        for t = !top to m - 1 do
          let v = topo.(t) in
          let j = pinv.(v) in
          if j >= 0 then begin
            let xv = x.(v) in
            if xv <> 0. then begin
              let ci = l_idx.(j) and cv = l_val.(j) in
              for e = 0 to Array.length ci - 1 do
                x.(ci.(e)) <- x.(ci.(e)) -. (cv.(e) *. xv)
              done
            end
          end
        done;
        (* Pivot selection over the not-yet-pivoted pattern rows. *)
        let vmax = ref 0. in
        for t = !top to m - 1 do
          let v = topo.(t) in
          if pinv.(v) < 0 then begin
            let a = abs_float x.(v) in
            if a > !vmax then vmax := a
          end
        done;
        if !vmax < 1e-11 then begin
          for t = !top to m - 1 do
            x.(topo.(t)) <- 0.
          done;
          raise Singular
        end;
        let prow = ref (-1) and pcount = ref max_int and pmag = ref 0. in
        for t = !top to m - 1 do
          let v = topo.(t) in
          if pinv.(v) < 0 then begin
            let a = abs_float x.(v) in
            if
              a >= threshold *. !vmax
              && (row_count.(v) < !pcount || (row_count.(v) = !pcount && a > !pmag))
            then begin
              pcount := row_count.(v);
              pmag := a;
              prow := v
            end
          end
        done;
        let prow = !prow in
        let piv = x.(prow) in
        let nu = ref 0 and nl = ref 0 in
        for t = !top to m - 1 do
          let v = topo.(t) in
          if v <> prow && x.(v) <> 0. then
            if pinv.(v) >= 0 then incr nu else incr nl
        done;
        let ui = Array.make !nu 0 and uv = Array.make !nu 0. in
        let li = Array.make !nl 0 and lv = Array.make !nl 0. in
        let iu = ref 0 and il = ref 0 in
        for t = !top to m - 1 do
          let v = topo.(t) in
          if v <> prow then begin
            let xv = x.(v) in
            if xv <> 0. then
              if pinv.(v) >= 0 then begin
                ui.(!iu) <- pinv.(v);
                uv.(!iu) <- xv;
                incr iu
              end
              else begin
                li.(!il) <- v;
                lv.(!il) <- xv /. piv;
                incr il
              end
          end;
          x.(v) <- 0.
        done;
        u_idx.(k) <- ui;
        u_val.(k) <- uv;
        l_idx.(k) <- li;
        l_val.(k) <- lv;
        u_diag.(k) <- piv;
        p.(k) <- prow;
        pinv.(prow) <- k;
        q.(k) <- s;
        nnz := !nnz + !nu + !nl
      done;
      for k = 0 to m - 1 do
        let li = l_idx.(k) in
        for e = 0 to Array.length li - 1 do
          li.(e) <- pinv.(li.(e))
        done
      done;
      { m; l_idx; l_val; u_idx; u_val; u_diag; p; q; z = Array.make m 0.; nnz = !nnz }
    end

  let nnz t = t.nnz

  let solve t b w =
    let m = t.m in
    let z = t.z in
    for k = 0 to m - 1 do
      z.(k) <- b.(t.p.(k))
    done;
    for k = 0 to m - 1 do
      let v = z.(k) in
      if v <> 0. then begin
        let li = t.l_idx.(k) and lv = t.l_val.(k) in
        for e = 0 to Array.length li - 1 do
          z.(li.(e)) <- z.(li.(e)) -. (lv.(e) *. v)
        done
      end
    done;
    for k = m - 1 downto 0 do
      let v = z.(k) /. t.u_diag.(k) in
      z.(k) <- v;
      if v <> 0. then begin
        let ui = t.u_idx.(k) and uv = t.u_val.(k) in
        for e = 0 to Array.length ui - 1 do
          z.(ui.(e)) <- z.(ui.(e)) -. (uv.(e) *. v)
        done
      end
    done;
    for k = 0 to m - 1 do
      w.(t.q.(k)) <- z.(k)
    done

  let solve_t t c y =
    let m = t.m in
    let z = t.z in
    for k = 0 to m - 1 do
      z.(k) <- c.(t.q.(k))
    done;
    (* U^T is lower triangular in pivot coordinates: forward substitution
       reading U's columns as rows of the transpose. *)
    for k = 0 to m - 1 do
      let ui = t.u_idx.(k) and uv = t.u_val.(k) in
      let acc = ref z.(k) in
      for e = 0 to Array.length ui - 1 do
        acc := !acc -. (uv.(e) *. z.(ui.(e)))
      done;
      z.(k) <- !acc /. t.u_diag.(k)
    done;
    for k = m - 1 downto 0 do
      let li = t.l_idx.(k) and lv = t.l_val.(k) in
      let acc = ref z.(k) in
      for e = 0 to Array.length li - 1 do
        acc := !acc -. (lv.(e) *. z.(li.(e)))
      done;
      z.(k) <- !acc
    done;
    for k = 0 to m - 1 do
      y.(t.p.(k)) <- z.(k)
    done
end
