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

(* One domain's buffers, reused by every problem it solves: the online
   heuristics solve one problem per slot, and an n x n matrix allocated per
   call would be garbage for the major heap every slot.  The domains backend
   runs cells in parallel, so each domain owns its own. *)
type problem = {
  left : side;
  right : side;
  mutable room : int;
  mutable ne : int;
  mutable dim : int;  (* bound on either side's count: the matrices' stride *)
  mutable cost : float array;  (* dim x dim, row-major: best weight, then cost *)
  mutable best : int array;  (* witness edge per numbered pair, -1 for none *)
}

let buffers =
  Domain.DLS.new_key (fun () ->
      let side () = { range = 0; id = [||]; vertex = [||]; count = 0 } in
      { left = side (); right = side (); room = 0; ne = 0; dim = 0; cost = [||]; best = [||] })

let problem ~nl ~nr ~edges =
  if nl < 0 || nr < 0 || edges < 0 then invalid_arg "Weighted_matching.problem: negative size";
  let s = Domain.DLS.get buffers in
  reset s.left nl;
  reset s.right nr;
  (* Each side numbers at most min (vertices, edges) vertices. *)
  let dim = max (min nl edges) (min nr edges) in
  s.cost <- grow s.cost (dim * dim) 0.;
  s.best <- grow s.best (dim * dim) (-1);
  Array.fill s.cost 0 (dim * dim) 0.;
  Array.fill s.best 0 (dim * dim) (-1);
  s.room <- edges;
  s.ne <- 0;
  s.dim <- dim;
  s

(* Each numbered pair keeps its best non-negative weight and witness edge,
   the first edge winning ties; pairs without an edge keep weight 0, which
   encodes "leave unmatched". *)
let add_edge s u v w =
  if u < 0 || u >= s.left.range || v < 0 || v >= s.right.range then
    invalid_arg "Weighted_matching.add_edge: endpoint out of range";
  if not (Float.is_finite w) then invalid_arg "Weighted_matching: non-finite weight";
  if s.ne >= s.room then invalid_arg "Weighted_matching.add_edge: more edges than declared";
  let i = number s.left u in
  let k = (i * s.dim) + number s.right v in
  if w >= 0. && (s.best.(k) = -1 || w > s.cost.(k)) then begin
    s.cost.(k) <- w;
    s.best.(k) <- s.ne
  end;
  s.ne <- s.ne + 1

(* Hungarian algorithm for the n x n assignment problem, minimizing, in the
   classic potentials formulation: rows and columns are 1-indexed, and the
   cost of row [i] and column [j] is [cost.((i - 1) * dim + j - 1)].
   Returns [p] where p.(j) = row assigned to column j. *)
let hungarian cost dim n =
  let u = Array.make (n + 1) 0. and v = Array.make (n + 1) 0. in
  let p = Array.make (n + 1) 0 and way = Array.make (n + 1) 0 in
  let minv = Array.make (n + 1) infinity and used = Bytes.make (n + 1) '\000' in
  for i = 1 to n do
    p.(0) <- i;
    let j0 = ref 0 in
    Array.fill minv 0 (n + 1) infinity;
    Bytes.fill used 0 (n + 1) '\000';
    (* grow the alternating tree until it reaches a free column *)
    while p.(!j0) <> 0 do
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
  p

let solve s =
  if s.ne = 0 then []
  else begin
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
    let p = hungarian cost dim n in
    let result = ref [] in
    for j = 1 to n do
      let i = p.(j) in
      if i >= 1 then begin
        let e = s.best.(((i - 1) * dim) + j - 1) in
        if e >= 0 then result := e :: !result
      end
    done;
    !result
  end

let max_weight (g : Bgraph.t) w =
  let ne = Bgraph.num_edges g in
  if Array.length w <> ne then invalid_arg "Weighted_matching.max_weight: weight length";
  let s = problem ~nl:g.Bgraph.nl ~nr:g.Bgraph.nr ~edges:ne in
  Array.iteri (fun e { Bgraph.u; v } -> add_edge s u v w.(e)) g.Bgraph.edges;
  solve s
