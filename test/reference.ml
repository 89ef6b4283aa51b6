(* Reference implementations the tests pin the library to: the Hungarian
   algorithm on array-of-arrays matrices allocated per call, the matching
   policies' selection built from explicit graphs ([Policy.queue_graph],
   then [Bmatching.expand]), the sparse LU on per-column arrays, and the
   paper workload generators' batch loops.  The library computes the same
   results in one pass over reused buffers or as folds of streams; the
   tests compare the two edge for edge, order included, because the
   heuristics' schedules depend on which of several maximum matchings
   comes out, and bit for bit for the LU, because the simplex's pivots
   depend on every rounding of its solves.  The Theorem 3 rho search is
   kept as the plain bisection over [1, Art_lp.default_horizon] it was
   before its bracket, with the random capacitated instances it is
   compared on; LP (1)-(4) and LP (19)-(21) with their variable bounds
   written as rows; and a Figure 6/7 row as it was averaged before the
   one grid cell. *)

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

(* The paper generators' batch loops as they were before every generator
   became a fold of its stream, copied unchanged: the oracle for the
   property that the stream-defined [Flowsched_sim.Workload] generators
   produce the same instances. *)
module Workload = struct
  open Flowsched_util

  (* Per-flow endpoint/demand draws, shared between the batch generators below
     and the incremental {!stream} used by the serve loop.  The call order on
     the PRNG is load-bearing: the original batch generators built the spec
     tuple [(src, dst, demand, t)] directly, and OCaml evaluates tuple
     components right to left, so the effective draw order was demand, then
     dst, then src.  Keeping that order here (as explicit sequenced lets)
     means a stream's slot-by-slot prefix is byte-identical to the batch
     instance for the same seed. *)
  let draw_uniform ~m ~demand_of g =
    let demand = demand_of g in
    let dst = Prng.int g m in
    let src = Prng.int g m in
    (src, dst, demand)

  let poisson_specs g ~m ~rate ~rounds ~demand_of =
    let specs = ref [] in
    for t = 0 to rounds - 1 do
      let k = Sampling.poisson g rate in
      for _ = 1 to k do
        let src, dst, demand = draw_uniform ~m ~demand_of g in
        specs := (src, dst, demand, t) :: !specs
      done
    done;
    List.rev !specs

  let unit_demand _g = 1

  (* Parameter validation at the generator boundary (shared with the scenario
     zoo): a nonpositive rate, a nonpositive Zipf alpha, a fraction outside
     [0,1], or a max_demand < 1 would silently produce degenerate (empty or
     NaN-weighted) workloads — reject them loudly instead. *)
  let check_rate ~who rate =
    if rate <= 0. || Float.is_nan rate then
      invalid_arg (who ^ ": rate must be positive")

  let check_alpha ~who alpha =
    if alpha <= 0. || Float.is_nan alpha then
      invalid_arg (who ^ ": alpha must be positive")

  let check_fraction ~who fraction =
    if not (fraction >= 0. && fraction <= 1.) then
      invalid_arg (who ^ ": fraction must be within [0, 1]")

  let check_max_demand ~who max_demand =
    if max_demand < 1 then invalid_arg (who ^ ": max_demand must be >= 1")

  let poisson ~m ~rate ~rounds ~seed =
    if m < 1 || rounds < 1 then invalid_arg "Workload.poisson";
    check_rate ~who:"Workload.poisson" rate;
    let g = Prng.create seed in
    Instance.of_flows ~m ~m':m (poisson_specs g ~m ~rate ~rounds ~demand_of:unit_demand)

  let bounded_demand max_demand g = 1 + Prng.int g max_demand

  let poisson_with_demands ~m ~rate ~rounds ~max_demand ~seed =
    if m < 1 || rounds < 1 then invalid_arg "Workload.poisson_with_demands";
    check_rate ~who:"Workload.poisson_with_demands" rate;
    check_max_demand ~who:"Workload.poisson_with_demands" max_demand;
    let g = Prng.create seed in
    let specs = poisson_specs g ~m ~rate ~rounds ~demand_of:(bounded_demand max_demand) in
    Instance.of_flows
      ~cap_in:(Array.make m max_demand)
      ~cap_out:(Array.make m max_demand)
      ~m ~m':m specs

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

  (* Zipf endpoints: the original built [(sample (), sample (), 1, t)], so the
     dst draw preceded the src draw. *)
  let draw_skewed sample _g =
    let dst = sample () in
    let src = sample () in
    (src, dst, 1)

  let skewed ~m ~rate ~rounds ?(alpha = 1.0) ~seed () =
    if m < 1 || rounds < 1 then invalid_arg "Workload.skewed";
    check_rate ~who:"Workload.skewed" rate;
    check_alpha ~who:"Workload.skewed" alpha;
    let g = Prng.create seed in
    let sample = zipf_sampler g m alpha in
    let specs = ref [] in
    for t = 0 to rounds - 1 do
      let k = Sampling.poisson g rate in
      for _ = 1 to k do
        let src, dst, demand = draw_skewed sample g in
        specs := (src, dst, demand, t) :: !specs
      done
    done;
    Instance.of_flows ~m ~m':m (List.rev !specs)

  (* Incast endpoints: dst decision (one float, plus one int draw on the cold
     path) before the src draw, as in the original tuple build. *)
  let draw_hotspot ~m ~fraction g =
    let dst = if Prng.float g < fraction then 0 else Prng.int g m in
    let src = Prng.int g m in
    (src, dst, 1)

  let hotspot ~m ~rate ~rounds ?(fraction = 0.5) ~seed () =
    if m < 1 || rounds < 1 then invalid_arg "Workload.hotspot";
    check_rate ~who:"Workload.hotspot" rate;
    check_fraction ~who:"Workload.hotspot" fraction;
    let g = Prng.create seed in
    let specs = ref [] in
    for t = 0 to rounds - 1 do
      let k = Sampling.poisson g rate in
      for _ = 1 to k do
        let src, dst, demand = draw_hotspot ~m ~fraction g in
        specs := (src, dst, demand, t) :: !specs
      done
    done;
    Instance.of_flows ~m ~m':m (List.rev !specs)
end

(* The Theorem 3 rho search before its bracket: bisection over
   [1, Art_lp.default_horizon], one LP (19)-(21) probe per step, each
   probe (by default) warm-started from the optimal basis of the last
   feasible one; bases cut to a shrinking active set drop the keys of
   rounds that left it. *)
let plain_min_fractional_rho ?(warm_start = true) inst =
  let module Mrt_lp = Flowsched_core.Mrt_lp in
  let warm = ref None in
  let probe rho =
    let active = Mrt_lp.active_of_rho inst rho in
    match Mrt_lp.solve ?warm:(if warm_start then !warm else None) inst active with
    | None -> false
    | Some frac ->
        warm := Some frac.Mrt_lp.basis;
        true
  in
  let hi = Flowsched_core.Art_lp.default_horizon inst in
  if not (probe hi) then failwith "Reference.plain_min_fractional_rho: upper bound infeasible";
  let lo = ref 1 and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if probe mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Random instances whose capacities and demands go above 1: m in [1, 5]
   ports per side, each port's capacity in [1, 4], each flow's demand in
   [1, kappa_e], releases in [0, 6] and 1 to 30 flows. *)
let capacitated_instance seed =
  let g = Flowsched_util.Prng.create seed in
  let int lo hi = lo + Flowsched_util.Prng.int g (hi - lo + 1) in
  let m = int 1 5 in
  let cap_in = Array.init m (fun _ -> int 1 4) in
  let cap_out = Array.init m (fun _ -> int 1 4) in
  let n = int 1 30 in
  let flow _ =
    let src = int 0 (m - 1) in
    let dst = int 0 (m - 1) in
    let demand = int 1 (min cap_in.(src) cap_out.(dst)) in
    (src, dst, demand, int 0 6)
  in
  Instance.of_flows ~cap_in ~cap_out ~m ~m':m (List.init n flow)

(* The bound rows LP (1)-(4) and LP (19)-(21) carried before their upper
   bounds became declared ones.  [with_bound_rows m] copies [m]'s columns
   and rows through [Model]'s accessors and then writes each finite
   declared bound as an explicit [Le] row, so the copy declares none and
   describes the same polytope. *)
let with_bound_rows m =
  let module Model = Flowsched_lp.Model in
  let copy = Model.create () in
  for v = 0 to Model.num_vars m - 1 do
    ignore (Model.add_var ~obj:(Model.objective_coeff m v) copy)
  done;
  for r = 0 to Model.num_rows m - 1 do
    ignore
      (Model.add_constraint copy (Model.row_terms m r) (Model.row_sense m r) (Model.row_rhs m r))
  done;
  for v = 0 to Model.num_vars m - 1 do
    let ub = Model.var_upper m v in
    if ub < infinity then ignore (Model.add_constraint copy [ (v, 1.) ] Model.Le ub)
  done;
  copy

(* LP (19)-(21) with each x_{e,t} <= 1 as an explicit row: one column per
   flow and active round, the assignment rows (20), the demand-weighted
   capacity rows (19), then the bound rows.  Returns each flow's scheduled
   total sum_t x_{e,t} after a cold solve, or [None] when it is
   infeasible. *)
let mrt_lp_with_bound_rows inst (active : Flowsched_core.Mrt_lp.active) =
  let module Model = Flowsched_lp.Model in
  let module Simplex = Flowsched_lp.Simplex in
  let model = Model.create () in
  let cap_terms = Hashtbl.create 64 in
  let columns = ref [] in
  Array.iter
    (fun (f : Flow.t) ->
      let terms =
        List.map
          (fun t ->
            let v = Model.add_var model in
            columns := (f.Flow.id, v) :: !columns;
            List.iter
              (fun key ->
                let cur = Option.value (Hashtbl.find_opt cap_terms key) ~default:[] in
                Hashtbl.replace cap_terms key ((v, float_of_int f.Flow.demand) :: cur))
              [ (true, f.Flow.src, t); (false, f.Flow.dst, t) ];
            (v, 1.))
          (active f.Flow.id)
      in
      ignore (Model.add_constraint model terms Model.Eq 1.))
    inst.Instance.flows;
  Hashtbl.iter
    (fun (is_input, p, _) terms ->
      let cap = if is_input then inst.Instance.cap_in.(p) else inst.Instance.cap_out.(p) in
      ignore (Model.add_constraint model terms Model.Le (float_of_int cap)))
    cap_terms;
  List.iter (fun (_, v) -> ignore (Model.add_constraint model [ (v, 1.) ] Model.Le 1.)) !columns;
  let res = Simplex.solve model in
  if res.Simplex.status <> Simplex.Optimal then None
  else begin
    let sums = Array.make (Instance.n inst) 0. in
    List.iter (fun (e, v) -> sums.(e) <- sums.(e) +. res.Simplex.values.(v)) !columns;
    Some sums
  end

(* Bmatching.Incremental as it was before its state moved into flat arrays:
   per-pair records allocated on first use, a [Queue] of free flows and a
   list of bound flows per pair, both cleaned of departed flows lazily
   (tombstones), and a polymorphic [Hashtbl] from id to flow state.  The
   flat structure must make every decision this one makes: which free flow
   binds first, which bound flow unbinds first, the order [matched] lists,
   and the [stats] counts.  Only for sequences that never re-add a removed
   id: a tombstone here is recognized by looking its id up, so a re-added
   id revives its old queue and list entries, on whichever pair they were.
   Error messages are the library's. *)
module Incremental = struct
  type fstate = { pair : int; mutable is_bound : bool }

  type pstate = {
    mutable live : int;  (* pending flows on this pair = edge capacity *)
    mutable x : int;  (* matched units; equals the number of bound flows *)
    free_q : int Queue.t;  (* free live flows, oldest first, lazy tombstones *)
    mutable bound : int list;  (* bound flows, lazy tombstones *)
  }

  type stats = { fast_binds : int; rebinds : int; searches : int; augments : int }

  type t = {
    nl : int;
    nr : int;
    cap_in : int array;
    cap_out : int array;
    pairs : pstate option array;  (* dense, nl * nr; allocated on first use *)
    flows : (int, fstate) Hashtbl.t;
    deg_l : int array;
    deg_r : int array;
    mutable value : int;
    mutable dirty : bool;
    (* BFS scratch: -2 unvisited, -1 BFS source, >= 0 the pair we came by. *)
    prev_l : int array;
    prev_r : int array;
    bfs_q : int Queue.t;  (* left port u encoded as u, right port v as nl + v *)
    mutable fast_binds : int;
    mutable rebinds : int;
    mutable searches : int;
    mutable augments : int;
  }

  let create ~nl ~nr ~cap_in ~cap_out =
    if nl < 1 || nr < 1 then invalid_arg "Bmatching.Incremental.create: empty side";
    if Array.length cap_in <> nl || Array.length cap_out <> nr then
      invalid_arg "Bmatching.Incremental.create: capacity array length";
    Array.iter
      (fun c -> if c < 0 then invalid_arg "Bmatching.Incremental.create: negative capacity")
      cap_in;
    Array.iter
      (fun c -> if c < 0 then invalid_arg "Bmatching.Incremental.create: negative capacity")
      cap_out;
    {
      nl;
      nr;
      cap_in = Array.copy cap_in;
      cap_out = Array.copy cap_out;
      pairs = Array.make (nl * nr) None;
      flows = Hashtbl.create 256;
      deg_l = Array.make nl 0;
      deg_r = Array.make nr 0;
      value = 0;
      dirty = false;
      prev_l = Array.make nl (-2);
      prev_r = Array.make nr (-2);
      bfs_q = Queue.create ();
      fast_binds = 0;
      rebinds = 0;
      searches = 0;
      augments = 0;
    }

  let pstate t p =
    match t.pairs.(p) with
    | Some ps -> ps
    | None ->
        let ps = { live = 0; x = 0; free_q = Queue.create (); bound = [] } in
        t.pairs.(p) <- Some ps;
        ps

  (* Pop the oldest live free flow of [ps], dropping tombstones. *)
  let rec pop_free t ps =
    match Queue.take_opt ps.free_q with
    | None -> None
    | Some id -> (
        match Hashtbl.find_opt t.flows id with
        | Some fs when not fs.is_bound -> Some id
        | _ -> pop_free t ps)

  let rec pop_bound t ps =
    match ps.bound with
    | [] -> None
    | id :: rest -> (
        ps.bound <- rest;
        match Hashtbl.find_opt t.flows id with
        | Some fs when fs.is_bound -> Some id
        | _ -> pop_bound t ps)

  let add t ~id ~src ~dst =
    if src < 0 || src >= t.nl || dst < 0 || dst >= t.nr then
      invalid_arg "Bmatching.Incremental.add: port out of range";
    if Hashtbl.mem t.flows id then invalid_arg "Bmatching.Incremental.add: duplicate flow id";
    let p = (src * t.nr) + dst in
    let ps = pstate t p in
    ps.live <- ps.live + 1;
    let fs = { pair = p; is_bound = false } in
    Hashtbl.add t.flows id fs;
    if t.deg_l.(src) < t.cap_in.(src) && t.deg_r.(dst) < t.cap_out.(dst) then begin
      fs.is_bound <- true;
      ps.x <- ps.x + 1;
      ps.bound <- id :: ps.bound;
      t.deg_l.(src) <- t.deg_l.(src) + 1;
      t.deg_r.(dst) <- t.deg_r.(dst) + 1;
      t.value <- t.value + 1;
      t.fast_binds <- t.fast_binds + 1
    end
    else begin
      Queue.push id ps.free_q;
      (* The pair was saturated before this arrival: a forward residual edge
         just appeared, so an augmenting path may now exist. *)
      if ps.x = ps.live - 1 then t.dirty <- true
    end

  let remove t id =
    match Hashtbl.find_opt t.flows id with
    | None -> invalid_arg "Bmatching.Incremental.remove: unknown flow id"
    | Some fs ->
        let p = fs.pair in
        let ps = match t.pairs.(p) with Some ps -> ps | None -> assert false in
        Hashtbl.remove t.flows id;
        ps.live <- ps.live - 1;
        if fs.is_bound then begin
          match pop_free t ps with
          | Some id' ->
              (* Hand the matched unit to a surviving parallel flow. *)
              (Hashtbl.find t.flows id').is_bound <- true;
              ps.bound <- id' :: ps.bound;
              t.rebinds <- t.rebinds + 1
          | None ->
              ps.x <- ps.x - 1;
              let u = p / t.nr and v = p mod t.nr in
              t.deg_l.(u) <- t.deg_l.(u) - 1;
              t.deg_r.(v) <- t.deg_r.(v) - 1;
              t.value <- t.value - 1;
              t.dirty <- true
        end

  (* One BFS over ports: multi-source from left ports with spare in-degree,
     forward along pairs with x < live, backward along pairs with x > 0,
     terminating at a right port with spare out-degree.  On success, walk the
     BFS tree back applying the path: bind a free flow on forward pairs,
     unbind a bound flow on backward pairs. *)
  let augment_once t =
    t.searches <- t.searches + 1;
    Array.fill t.prev_l 0 t.nl (-2);
    Array.fill t.prev_r 0 t.nr (-2);
    Queue.clear t.bfs_q;
    for u = 0 to t.nl - 1 do
      if t.deg_l.(u) < t.cap_in.(u) then begin
        t.prev_l.(u) <- -1;
        Queue.push u t.bfs_q
      end
    done;
    let found = ref (-1) in
    while !found < 0 && not (Queue.is_empty t.bfs_q) do
      let node = Queue.pop t.bfs_q in
      if node < t.nl then begin
        let u = node in
        let v = ref 0 in
        while !found < 0 && !v < t.nr do
          (match t.pairs.((u * t.nr) + !v) with
          | Some ps when ps.x < ps.live && t.prev_r.(!v) = -2 ->
              t.prev_r.(!v) <- (u * t.nr) + !v;
              if t.deg_r.(!v) < t.cap_out.(!v) then found := !v
              else Queue.push (t.nl + !v) t.bfs_q
          | _ -> ());
          incr v
        done
      end
      else begin
        let v = node - t.nl in
        for u = 0 to t.nl - 1 do
          match t.pairs.((u * t.nr) + v) with
          | Some ps when ps.x > 0 && t.prev_l.(u) = -2 ->
              t.prev_l.(u) <- (u * t.nr) + v;
              Queue.push u t.bfs_q
          | _ -> ()
        done
      end
    done;
    if !found < 0 then false
    else begin
      let rec walk v =
        let p = t.prev_r.(v) in
        let ps = match t.pairs.(p) with Some ps -> ps | None -> assert false in
        (match pop_free t ps with
        | Some id ->
            (Hashtbl.find t.flows id).is_bound <- true;
            ps.x <- ps.x + 1;
            ps.bound <- id :: ps.bound
        | None -> assert false (* x < live implies a live free flow exists *));
        let u = p / t.nr in
        if t.prev_l.(u) = -1 then u
        else begin
          let p' = t.prev_l.(u) in
          let ps' = match t.pairs.(p') with Some ps -> ps | None -> assert false in
          (match pop_bound t ps' with
          | Some id ->
              (Hashtbl.find t.flows id).is_bound <- false;
              ps'.x <- ps'.x - 1;
              Queue.push id ps'.free_q
          | None -> assert false (* x > 0 implies a bound flow exists *));
          walk (p' mod t.nr)
        end
      in
      let src = walk !found in
      t.deg_l.(src) <- t.deg_l.(src) + 1;
      t.deg_r.(!found) <- t.deg_r.(!found) + 1;
      t.value <- t.value + 1;
      t.augments <- t.augments + 1;
      true
    end

  let refresh t =
    if t.dirty then begin
      while augment_once t do
        ()
      done;
      t.dirty <- false
    end

  let cardinality t =
    refresh t;
    t.value

  let pending t = Hashtbl.length t.flows
  let mem t id = Hashtbl.mem t.flows id

  let matched t =
    refresh t;
    let out = ref [] in
    for u = t.nl - 1 downto 0 do
      for v = t.nr - 1 downto 0 do
        match t.pairs.((u * t.nr) + v) with
        | Some ps when ps.bound <> [] ->
            let ids =
              List.filter
                (fun id ->
                  match Hashtbl.find_opt t.flows id with
                  | Some fs -> fs.is_bound
                  | None -> false)
                ps.bound
            in
            ps.bound <- ids;
            out := ids @ !out
        | _ -> ()
      done
    done;
    !out

  let take_matched t =
    let ids = matched t in
    List.iter (fun id -> remove t id) ids;
    ids

  let stats t =
    { fast_binds = t.fast_binds; rebinds = t.rebinds; searches = t.searches; augments = t.augments }
end

(* A Figure 6/7 row as it was computed before the one grid cell: its own
   config record, a per-try loop over Poisson instances that averages
   every policy and the LP bounds, and the table and JSON renderers of
   that record, copied unchanged: the oracle for the property that a row
   of grid cells, averaged by [Flowsched_sim.Report], renders the same
   bytes. *)
module Figures = struct
  open Flowsched_util
  open Flowsched_sim

  type cell_config = {
    m : int;
    rate : float;
    rounds : int;
    tries : int;
    seed : int;
    with_lp : bool;
  }

  type cell_result = {
    config : cell_config;
    flows_mean : float;
    avg_response : (string * float) list;
    max_response : (string * float) list;
    lp_avg_bound : float;
    lp_max_bound : float;
  }

  let run_cell ~policies config =
    let per_policy_avg = Hashtbl.create 8 and per_policy_max = Hashtbl.create 8 in
    let lp_avgs = ref [] and lp_maxs = ref [] in
    let flow_counts = ref [] in
    let names = List.map (fun (p : Flowsched_online.Policy.t) -> p.Flowsched_online.Policy.name) policies in
    List.iter
      (fun name ->
        Hashtbl.replace per_policy_avg name [];
        Hashtbl.replace per_policy_max name [])
      names;
    for trial = 0 to config.tries - 1 do
      let seed = config.seed + (1000 * trial) in
      let inst = Workload.poisson ~m:config.m ~rate:config.rate ~rounds:config.rounds ~seed in
      if Instance.n inst > 0 then begin
        flow_counts := float_of_int (Instance.n inst) :: !flow_counts;
        let max_makespan = ref 0 in
        List.iter
          (fun (p : Flowsched_online.Policy.t) ->
            let r = Engine.run_instance p inst in
            max_makespan := max !max_makespan r.Engine.makespan;
            let name = p.Flowsched_online.Policy.name in
            Hashtbl.replace per_policy_avg name
              (Engine.average_response r :: Hashtbl.find per_policy_avg name);
            Hashtbl.replace per_policy_max name
              (float_of_int (Engine.max_response r) :: Hashtbl.find per_policy_max name))
          policies;
        if config.with_lp then begin
          (* Horizon must cover the heuristics' schedules for Lemma 3.1 to
             bound them. *)
          let horizon = max (Flowsched_core.Art_lp.default_horizon inst) !max_makespan in
          let bound = Flowsched_core.Art_lp.lower_bound ~horizon inst in
          lp_avgs := bound.Flowsched_core.Art_lp.average :: !lp_avgs;
          let rho = Flowsched_core.Mrt_scheduler.min_fractional_rho inst in
          lp_maxs := float_of_int rho :: !lp_maxs
        end
      end
    done;
    let mean = function [] -> nan | xs -> Stats.mean (Array.of_list xs) in
    {
      config;
      flows_mean = mean !flow_counts;
      avg_response = List.map (fun n -> (n, mean (Hashtbl.find per_policy_avg n))) names;
      max_response = List.map (fun n -> (n, mean (Hashtbl.find per_policy_max n))) names;
      lp_avg_bound = (if config.with_lp then mean !lp_avgs else nan);
      lp_max_bound = (if config.with_lp then mean !lp_maxs else nan);
    }

  let fig6_grid ?(m = 6) ?(tries = 3) ?(seed = 1) ?(lp_rounds_limit = 12) ~congestion ~rounds () =
    List.concat_map
      (fun c ->
        List.map
          (fun t ->
            {
              m;
              rate = c *. float_of_int m;
              rounds = t;
              tries;
              seed = seed + int_of_float (c *. 1_000_000.) + (17 * t);
              with_lp = t <= lp_rounds_limit;
            })
          rounds)
      congestion

  let series objective (cell : cell_result) =
    match objective with
    | `Avg -> (cell.avg_response, cell.lp_avg_bound)
    | `Max -> (cell.max_response, cell.lp_max_bound)

  let table objective results =
    let policy_names =
      match results with
      | [] -> []
      | cell :: _ -> List.map fst (fst (series objective cell))
    in
    let columns =
      [ ("M/m", Table.Right); ("T", Table.Right); ("flows", Table.Right) ]
      @ List.concat_map
          (fun n -> [ (n, Table.Right); (n ^ "/LP", Table.Right) ])
          policy_names
      @ [ ("LP bound", Table.Right) ]
    in
    let t = Table.create columns in
    let last_congestion = ref nan in
    List.iter
      (fun (cell : cell_result) ->
        let cfg = cell.config in
        let congestion = cfg.rate /. float_of_int cfg.m in
        if (not (Float.is_nan !last_congestion)) && congestion <> !last_congestion then
          Table.add_separator t;
        last_congestion := congestion;
        let values, lp = series objective cell in
        Table.add_row t
          ([
             Table.cell_float ~decimals:2 congestion;
             string_of_int cfg.rounds;
             Table.cell_float ~decimals:1 cell.flows_mean;
           ]
          @ List.concat_map
              (fun (_, v) -> [ Table.cell_float v; Table.cell_ratio v lp ])
              values
          @ [ Table.cell_float lp ]))
      results;
    Table.render t

  let fig6_table results = table `Avg results
  let fig7_table results = table `Max results

  let policy_series_json values = Json.Obj (List.map (fun (name, v) -> (name, Json.float v)) values)

  let cell_json (cell : cell_result) =
    let cfg = cell.config in
    Json.Obj
      [
        ("m", Json.Int cfg.m);
        ("rate", Json.Float cfg.rate);
        ("rounds", Json.Int cfg.rounds);
        ("tries", Json.Int cfg.tries);
        ("seed", Json.Int cfg.seed);
        ("with_lp", Json.Bool cfg.with_lp);
        ("flows_mean", Json.float cell.flows_mean);
        ("avg_response", policy_series_json cell.avg_response);
        ("max_response", policy_series_json cell.max_response);
        ("lp_avg_bound", Json.float cell.lp_avg_bound);
        ("lp_max_bound", Json.float cell.lp_max_bound);
      ]

  let figures_json ?(jobs = 1) results =
    Json.Obj
      [
        ("schema", Json.Str "flowsched-figures/1");
        ("jobs", Json.Int jobs);
        ("cells", Json.Arr (List.map cell_json results));
      ]
end
