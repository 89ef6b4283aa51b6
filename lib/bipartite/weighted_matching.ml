module Trace = Flowsched_obs.Trace
module Json = Flowsched_util.Json

let weight_of w ids = List.fold_left (fun acc e -> acc +. w.(e)) 0. ids

(* Buffers only grow, geometrically, so a run reallocates a few times while
   its problems grow and then never again. *)
let grow a need fill =
  if Array.length a >= need then a else Array.make (max need (3 * Array.length a / 2)) fill

(* One side's vertices, numbered in order of first appearance. *)
type side = {
  mutable range : int;  (* vertices are [0, range) *)
  mutable id : int array;  (* vertex -> number, -1 while unseen *)
  mutable vertex : int array;  (* number -> vertex *)
  mutable count : int;
}

(* Forgets the previous problem's vertices only now, so that a problem
   abandoned by an exception leaves no trace. *)
let reset side range =
  for k = 0 to side.count - 1 do
    side.id.(side.vertex.(k)) <- -1
  done;
  side.id <- grow side.id range (-1);
  side.vertex <- grow side.vertex range 0;
  side.range <- range;
  side.count <- 0

let number side x =
  if side.id.(x) < 0 then begin
    side.id.(x) <- side.count;
    side.vertex.(side.count) <- x;
    side.count <- side.count + 1
  end;
  side.id.(x)

(* Problems whose declared size [dim] is at least this go to the sparse
   solver, smaller ones to the dense matrix.  On the problems MinRTime and
   MaxWeight pose on Poisson traffic, sparse over dense time per call was
   0.99-1.01 at 14 ports and 0.94-0.95 at 15 (DESIGN.md, "Two Hungarian
   solvers"). *)
let sparse_from = 15

(* The sparse solver's buffers.  As in the dense loop, rows and columns
   are 1-indexed and column 0 is the virtual column holding the row a
   phase inserts. *)
type sparse = {
  mutable kept : int;  (* the edges of non-negative weight, in id order *)
  mutable erow : int array;  (* left number *)
  mutable ecol : int array;  (* column *)
  mutable ew : float array;
  mutable eid : int array;
  mutable start : int array;  (* row r's pairs are [start.(r - 1), start.(r)) *)
  mutable pcol : int array;
  mutable pcost : float array;  (* the pair's heaviest weight, then its cost *)
  mutable pid : int array;  (* the pair's edge: the heaviest, the first on ties *)
  mutable tick : int;  (* stamps only grow, so [mark] and [used] need no clearing *)
  mutable mark : int array;  (* column: stamp of the row being reduced, *)
  mutable slot : int array;  (* and the column's pair in that row *)
  mutable used : int array;  (* column: stamp of the phase it joined the tree in *)
  mutable step : int array;  (* column: the step it joined at *)
  mutable joined : float array;  (* column: the running total of deltas then *)
  mutable tree : int array;  (* step -> column *)
  mutable key : float array;  (* column: least pair key from the tree, infinity if none *)
  mutable wit : int array;  (* column: tree column of the first row reaching [key] *)
  mutable reached : int array;  (* the columns whose [key] this phase set *)
  mutable bkey : float array;  (* block of columns: least [key] in it, *)
  mutable bcol : int array;  (* and the least column having it *)
  mutable u : float array;
  mutable v : float array;
  mutable p : int array;
  mutable way : int array;
}

(* One domain's buffers, reused by every problem it solves: the online
   heuristics solve one problem per slot, and an n x n matrix allocated per
   call would be garbage for the major heap every slot.  The library stays
   safe to call from several domains at once, so each domain owns its own. *)
type problem = {
  left : side;
  right : side;
  mutable room : int;
  mutable ne : int;
  mutable dim : int;  (* bound on either side's count: the matrices' stride *)
  mutable cost : float array;  (* dim x dim, row-major: best weight, then cost *)
  mutable best : int array;  (* witness edge per numbered pair, -1 for none *)
  sp : sparse;
  mutable pairs : int;  (* numbered pairs with an edge; the sparse solver counts
                           them when it reduces the edges *)
  mutable phases : int;  (* the last solve's phases, *)
  mutable steps : int;  (* and its tree steps over all of them *)
}

let buffers =
  Domain.DLS.new_key (fun () ->
      let side () = { range = 0; id = [||]; vertex = [||]; count = 0 } in
      let sp =
        {
          kept = 0; erow = [||]; ecol = [||]; ew = [||]; eid = [||]; start = [||];
          pcol = [||]; pcost = [||]; pid = [||]; tick = 0; mark = [||]; slot = [||];
          used = [||]; step = [||]; joined = [||]; tree = [||]; key = [||]; wit = [||];
          reached = [||]; bkey = [||]; bcol = [||]; u = [||]; v = [||]; p = [||]; way = [||];
        }
      in
      {
        left = side (); right = side (); room = 0; ne = 0; dim = 0; cost = [||]; best = [||]; sp;
        pairs = 0; phases = 0; steps = 0;
      })

let problem ~nl ~nr ~edges =
  if nl < 0 || nr < 0 || edges < 0 then invalid_arg "Weighted_matching.problem: negative size";
  let s = Domain.DLS.get buffers in
  reset s.left nl;
  reset s.right nr;
  (* Each side numbers at most min (vertices, edges) vertices. *)
  let dim = max (min nl edges) (min nr edges) in
  if dim >= sparse_from then begin
    let t = s.sp in
    t.erow <- grow t.erow edges 0;
    t.ecol <- grow t.ecol edges 0;
    t.ew <- grow t.ew edges 0.;
    t.eid <- grow t.eid edges 0;
    t.kept <- 0
  end
  else begin
    s.cost <- grow s.cost (dim * dim) 0.;
    s.best <- grow s.best (dim * dim) (-1);
    Array.fill s.cost 0 (dim * dim) 0.;
    Array.fill s.best 0 (dim * dim) (-1)
  end;
  s.room <- edges;
  s.ne <- 0;
  s.dim <- dim;
  s.pairs <- 0;
  s.phases <- 0;
  s.steps <- 0;
  s

(* Each numbered pair keeps its best non-negative weight and witness edge,
   the first edge winning ties; pairs without an edge keep weight 0, which
   encodes "leave unmatched".  The sparse solver keeps the edges and picks
   the same witnesses when it reduces them. *)
let add_edge s u v w =
  if u < 0 || u >= s.left.range || v < 0 || v >= s.right.range then
    invalid_arg "Weighted_matching.add_edge: endpoint out of range";
  if not (Float.is_finite w) then invalid_arg "Weighted_matching: non-finite weight";
  if s.ne >= s.room then invalid_arg "Weighted_matching.add_edge: more edges than declared";
  let i = number s.left u in
  let j = number s.right v in
  if s.dim >= sparse_from then begin
    if w >= 0. then begin
      let t = s.sp and k = s.sp.kept in
      t.erow.(k) <- i;
      t.ecol.(k) <- j + 1;
      t.ew.(k) <- w;
      t.eid.(k) <- s.ne;
      t.kept <- k + 1
    end
  end
  else begin
    let k = (i * s.dim) + j in
    if w >= 0. && (s.best.(k) = -1 || w > s.cost.(k)) then begin
      if s.best.(k) = -1 then s.pairs <- s.pairs + 1;
      s.cost.(k) <- w;
      s.best.(k) <- s.ne
    end
  end;
  s.ne <- s.ne + 1

(* Hungarian algorithm for the n x n assignment problem, minimizing, in the
   classic potentials formulation: rows and columns are 1-indexed, and the
   cost of row [i] and column [j] is [cost.((i - 1) * dim + j - 1)].
   Returns [p] where p.(j) = row assigned to column j. *)
let hungarian s cost dim n =
  let u = Array.make (n + 1) 0. and v = Array.make (n + 1) 0. in
  let p = Array.make (n + 1) 0 and way = Array.make (n + 1) 0 in
  let minv = Array.make (n + 1) infinity and used = Bytes.make (n + 1) '\000' in
  let steps = ref 0 in
  for i = 1 to n do
    p.(0) <- i;
    let j0 = ref 0 in
    Array.fill minv 0 (n + 1) infinity;
    Bytes.fill used 0 (n + 1) '\000';
    (* grow the alternating tree until it reaches a free column *)
    while p.(!j0) <> 0 do
      incr steps;
      Bytes.set used !j0 '\001';
      let i0 = p.(!j0) in
      let row = ((i0 - 1) * dim) - 1 and ui0 = u.(i0) in
      let delta = ref infinity and j1 = ref (-1) in
      (* every index below is in range: j <= n, and row + j < n * dim *)
      for j = 1 to n do
        if Bytes.unsafe_get used j = '\000' then begin
          let cur = Array.unsafe_get cost (row + j) -. ui0 -. Array.unsafe_get v j in
          let mj =
            if cur < Array.unsafe_get minv j then begin
              Array.unsafe_set minv j cur;
              Array.unsafe_set way j !j0;
              cur
            end
            else Array.unsafe_get minv j
          in
          if mj < !delta then begin
            delta := mj;
            j1 := j
          end
        end
      done;
      let delta = !delta in
      for j = 0 to n do
        if Bytes.unsafe_get used j <> '\000' then begin
          let pj = Array.unsafe_get p j in
          u.(pj) <- u.(pj) +. delta;
          Array.unsafe_set v j (Array.unsafe_get v j -. delta)
        end
        else Array.unsafe_set minv j (Array.unsafe_get minv j -. delta)
      done;
      j0 := !j1
    done;
    (* augment along the found path *)
    let j = ref !j0 in
    while !j <> 0 do
      let j1 = way.(!j) in
      p.(!j) <- p.(j1);
      j := j1
    done
  done;
  s.phases <- n;
  s.steps <- !steps;
  p

let solve_dense s =
  let n = max s.left.count s.right.count and dim = s.dim and cost = s.cost in
  let wmax = ref 0. in
  for i = 0 to n - 1 do
    for k = i * dim to (i * dim) + n - 1 do
      if not (!wmax >= cost.(k)) then wmax := cost.(k)
    done
  done;
  (* Assignment cost: wmax - weight, so maximizing weight = minimizing cost. *)
  for i = 0 to n - 1 do
    for k = i * dim to (i * dim) + n - 1 do
      cost.(k) <- !wmax -. cost.(k)
    done
  done;
  let p = hungarian s cost dim n in
  let result = ref [] in
  for j = 1 to n do
    let i = p.(j) in
    if i >= 1 then begin
      let e = s.best.(((i - 1) * dim) + j - 1) in
      if e >= 0 then result := e :: !result
    end
  done;
  !result

(* Buckets the kept edges by row, in id order within a row, and reduces
   each row to one pair per column: the heaviest edge, the first on ties.
   Returns the number of pairs. *)
let reduce t rows =
  let kept = t.kept in
  t.start <- grow t.start (rows + 2) 0;
  t.pcol <- grow t.pcol kept 0;
  t.pcost <- grow t.pcost kept 0.;
  t.pid <- grow t.pid kept 0;
  let start = t.start in
  Array.fill start 0 (rows + 2) 0;
  for k = 0 to kept - 1 do
    start.(t.erow.(k) + 2) <- start.(t.erow.(k) + 2) + 1
  done;
  for r = 2 to rows + 1 do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  (* start.(r + 1) is where row r begins; placing its edges moves it to
     where row r ends *)
  for k = 0 to kept - 1 do
    let r = t.erow.(k) + 1 in
    let q = start.(r) in
    t.pcol.(q) <- t.ecol.(k);
    t.pcost.(q) <- t.ew.(k);
    t.pid.(q) <- t.eid.(k);
    start.(r) <- q + 1
  done;
  (* compact each row in place, recording where it now ends *)
  let out = ref 0 and k = ref 0 in
  for r = 1 to rows do
    let hi = start.(r) in
    start.(r - 1) <- !out;
    t.tick <- t.tick + 1;
    while !k < hi do
      let j = t.pcol.(!k) in
      if t.mark.(j) = t.tick then begin
        let q = t.slot.(j) in
        if t.pcost.(!k) > t.pcost.(q) then begin
          t.pcost.(q) <- t.pcost.(!k);
          t.pid.(q) <- t.pid.(!k)
        end
      end
      else begin
        t.mark.(j) <- t.tick;
        t.slot.(j) <- !out;
        t.pcol.(!out) <- j;
        t.pcost.(!out) <- t.pcost.(!k);
        t.pid.(!out) <- t.pid.(!k);
        incr out
      end;
      incr k
    done
  done;
  start.(rows) <- !out;
  !out

(* log2 of the columns in a block of the pair-key minimum: 16 columns, the
   fastest of 8, 16 and 32 on sweep-paper's problems (DESIGN.md, "Two
   Hungarian solvers"). *)
let block = 4

(* The dense loop's decisions without its O(n) work per tree step.  Write
   D for the running total of the deltas in a phase.  A row joining the
   tree at total D_r with potential u_r reaches column j at key
   cost + (D_r - u_r) - v_j, which stays put while the tree grows: the
   dense loop's minv.(j) is the least key over the tree rows minus D.  So
   a joining row lowers the keys of its own pairs, each block of 16
   columns keeps its least key, and a column it has no pair with costs W,
   whose least key over the tree is W + min (D_r - u_r) - v_j: the best
   such column is the unused one of largest v, the least on ties.  Every
   delta is at least 0 and a free column never joins a tree, so free
   columns keep v = 0 and every v stays at most 0: that column is the
   least unused one with v = 0.  No v changes within a phase and used
   columns only accumulate, so a cursor that starts each phase at column
   1 finds it moving forward only.  The least key wins, then the least
   column; [way] gets the earliest-joined row reaching the winner's key,
   as the dense loop's strict comparison keeps it.  The winner's key is
   the new D, and tree rows and columns settle u and v when the phase
   ends.  With integer weights every value is an exact integer, so each
   comparison, and hence the assignment, is the dense loop's. *)
let solve_sparse s =
  let t = s.sp and rows = s.left.count in
  let n = max rows s.right.count in
  if Array.length t.u < n + 1 then begin
    let cap = max (n + 1) (3 * Array.length t.u / 2) in
    t.mark <- Array.make cap 0;
    t.slot <- Array.make cap 0;
    t.used <- Array.make cap 0;
    t.step <- Array.make cap 0;
    t.joined <- Array.make cap 0.;
    t.tree <- Array.make cap 0;
    t.key <- Array.make cap infinity;
    t.wit <- Array.make cap 0;
    t.reached <- Array.make cap 0;
    t.bkey <- Array.make ((cap lsr block) + 1) infinity;
    t.bcol <- Array.make ((cap lsr block) + 1) 0;
    t.u <- Array.make cap 0.;
    t.v <- Array.make cap 0.;
    t.p <- Array.make cap 0;
    t.way <- Array.make cap 0
  end;
  let pairs = reduce t rows in
  s.pairs <- pairs;
  if pairs = 0 then []
  else begin
    let pcol = t.pcol and pcost = t.pcost and start = t.start in
    let w = ref 0. in
    for q = 0 to pairs - 1 do
      if not (!w >= pcost.(q)) then w := pcost.(q)
    done;
    let w = !w in
    for q = 0 to pairs - 1 do
      pcost.(q) <- w -. pcost.(q)
    done;
    let u = t.u and v = t.v and p = t.p and way = t.way in
    let used = t.used and step = t.step and joined = t.joined and tree = t.tree in
    let key = t.key and wit = t.wit and reached = t.reached in
    let bkey = t.bkey and bcol = t.bcol in
    let blocks = (n lsr block) + 1 in
    Array.fill u 0 (n + 1) 0.;
    Array.fill v 0 (n + 1) 0.;
    Array.fill p 0 (n + 1) 0;
    let total = ref 0 in
    for i = 1 to n do
      t.tick <- t.tick + 1;
      let phase = t.tick in
      p.(0) <- i;
      Array.fill bkey 0 blocks infinity;
      let d = ref 0. and rmin = ref infinity and rwit = ref 0 in
      let steps = ref 0 and nreached = ref 0 and j0 = ref 0 and cur = ref 1 in
      (* Grow the alternating tree until it reaches a free column.  Every
         index below is in range: columns are at most n, below the length
         of every per-column buffer, and so are [steps] and [nreached], as
         a column joins or is reached at most once a phase; a tree row is
         at most n, and its pairs are read only when it is at most [rows];
         pair slots are below [pairs], and blocks below [blocks]. *)
      while Array.unsafe_get p !j0 <> 0 do
        let c0 = !j0 in
        Array.unsafe_set used c0 phase;
        Array.unsafe_set step c0 !steps;
        Array.unsafe_set joined c0 !d;
        Array.unsafe_set tree !steps c0;
        incr steps;
        let r = Array.unsafe_get p c0 in
        let x = !d -. Array.unsafe_get u r in
        if x < !rmin then begin
          rmin := x;
          rwit := c0
        end;
        if r <= rows then
          for q = Array.unsafe_get start (r - 1) to Array.unsafe_get start r - 1 do
            let j = Array.unsafe_get pcol q in
            let kj = Array.unsafe_get pcost q +. x -. Array.unsafe_get v j in
            if kj < Array.unsafe_get key j && Array.unsafe_get used j <> phase then begin
              if Array.unsafe_get key j = infinity then begin
                Array.unsafe_set reached !nreached j;
                incr nreached
              end;
              Array.unsafe_set key j kj;
              Array.unsafe_set wit j c0;
              let b = j lsr block in
              let kb = Array.unsafe_get bkey b in
              if kj < kb || (kj = kb && j < Array.unsafe_get bcol b) then begin
                Array.unsafe_set bkey b kj;
                Array.unsafe_set bcol b j
              end
            end
          done;
        (* blocks come in column order, so the first least key has the
           least column *)
        let bk = ref infinity and bc = ref 0 in
        for b = 0 to blocks - 1 do
          let kb = Array.unsafe_get bkey b in
          if kb < !bk then begin
            bk := kb;
            bc := Array.unsafe_get bcol b
          end
        done;
        (* the least unused column with v = 0: a free column is one, so
           the cursor stops at n at the latest *)
        while Array.unsafe_get used !cur = phase || Array.unsafe_get v !cur < 0. do
          incr cur
        done;
        let cw = !cur in
        let ktop = w +. !rmin -. Array.unsafe_get v cw in
        let j1 = if !bk < ktop || (!bk = ktop && !bc < cw) then !bc else cw in
        let kp = Array.unsafe_get key j1 in
        let kw = w +. !rmin -. Array.unsafe_get v j1 in
        let wj = Array.unsafe_get wit j1 in
        if kp < kw then begin
          Array.unsafe_set way j1 wj;
          d := kp
        end
        else begin
          Array.unsafe_set way j1
            (if kw = kp && Array.unsafe_get step wj < Array.unsafe_get step !rwit then wj
             else !rwit);
          d := kw
        end;
        if kp < infinity then begin
          Array.unsafe_set key j1 infinity;
          let b = j1 lsr block in
          if Array.unsafe_get bcol b = j1 then begin
            let lo = b lsl block in
            let mk = ref infinity and mc = ref 0 in
            for c = lo to min n (lo + (1 lsl block) - 1) do
              let kc = Array.unsafe_get key c in
              if kc < !mk then begin
                mk := kc;
                mc := c
              end
            done;
            Array.unsafe_set bkey b !mk;
            Array.unsafe_set bcol b !mc
          end
        end;
        j0 := j1
      done;
      total := !total + !steps;
      for k = 0 to !steps - 1 do
        let c = tree.(k) in
        let delta = !d -. joined.(c) in
        u.(p.(c)) <- u.(p.(c)) +. delta;
        v.(c) <- v.(c) -. delta
      done;
      for k = 0 to !nreached - 1 do
        key.(reached.(k)) <- infinity
      done;
      (* augment along the found path *)
      let j = ref !j0 in
      while !j <> 0 do
        let j1 = way.(!j) in
        p.(!j) <- p.(j1);
        j := j1
      done
    done;
    s.phases <- n;
    s.steps <- !total;
    let result = ref [] in
    for j = 1 to n do
      let i = p.(j) in
      if i >= 1 && i <= rows then begin
        let q = ref start.(i - 1) in
        while !q < start.(i) && pcol.(!q) <> j do
          incr q
        done;
        if !q < start.(i) then result := t.pid.(!q) :: !result
      end
    done;
    !result
  end

let run s = if s.ne = 0 then [] else if s.dim >= sparse_from then solve_sparse s else solve_dense s

(* Tracing off, a solve allocates no closure for its span. *)
let solve s =
  if not (Trace.enabled ()) then run s
  else
    Trace.with_span "matching.hungarian"
      ~args:(fun () ->
        [
          ("solver", Json.Str (if s.dim >= sparse_from then "sparse" else "dense"));
          ("n", Json.Int (max s.left.count s.right.count));
          ("pairs", Json.Int s.pairs);
          ("phases", Json.Int s.phases);
          ("steps", Json.Int s.steps);
        ])
      (fun () -> run s)

let max_weight (g : Bgraph.t) w =
  let ne = Bgraph.num_edges g in
  if Array.length w <> ne then invalid_arg "Weighted_matching.max_weight: weight length";
  let s = problem ~nl:g.Bgraph.nl ~nr:g.Bgraph.nr ~edges:ne in
  Array.iteri (fun e { Bgraph.u; v } -> add_edge s u v w.(e)) g.Bgraph.edges;
  solve s
