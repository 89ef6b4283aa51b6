exception Singular

(* One triangular factor's off-diagonal entries, column-wise: column k at
   [ptr.(k) .. ptr.(k+1) - 1] of [idx]/[vals].  The entry arrays grow by
   doubling and are otherwise reused from one factorization to the next. *)
type tri = { ptr : int array; mutable idx : int array; mutable vals : float array }

(* One factorization in pivot coordinates: L (unit diagonal, rows i > k),
   U (rows i < k) and U's diagonal, with the two permutations. *)
type factors = {
  l : tri;
  u : tri;
  u_diag : float array;
  p : int array; (* pivot position -> original row *)
  q : int array; (* pivot position -> column slot *)
  mutable nnz : int;
}

(* Two sets of factors: [solve]/[solve_t] read [live], [factorize] writes
   [spare] and swaps the two only on success, so a singular candidate
   leaves the live factors as they were.  The elimination scratch below is
   shared by both. *)
type t = {
  m : int;
  mutable live : factors;
  mutable spare : factors;
  row_count : int array; (* nonzeros per original row *)
  len_start : int array; (* counting sort of the slots by column length *)
  order : int array; (* elimination position -> slot *)
  pinv : int array; (* original row -> pivot position, -1 until pivoted *)
  x : float array; (* the column being eliminated, by original row; zero between uses *)
  mark : int array; (* DFS visit stamp: the position being eliminated *)
  topo : int array;
  stack : int array;
  sptr : int array;
  z : float array; (* scratch for the triangular solves *)
}

let tri m cap = { ptr = Array.make (m + 1) 0; idx = Array.make cap 0; vals = Array.make cap 0. }

let identity m =
  let cap = (4 * m) + 16 in
  {
    l = tri m cap;
    u = tri m cap;
    u_diag = Array.make m 1.;
    p = Array.init m Fun.id;
    q = Array.init m Fun.id;
    nnz = m;
  }

let create m =
  if m < 0 then invalid_arg "Sparse_lu.create: negative dimension";
  {
    m;
    live = identity m;
    spare = identity m;
    row_count = Array.make m 0;
    len_start = Array.make (m + 2) 0;
    order = Array.make m 0;
    pinv = Array.make m (-1);
    x = Array.make m 0.;
    mark = Array.make m (-1);
    topo = Array.make m 0;
    stack = Array.make m 0;
    sptr = Array.make m 0;
    z = Array.make m 0.;
  }

(* Room for [need] entries in [f], keeping the first [used]. *)
let reserve f used need =
  if need > Array.length f.idx then begin
    let cap = max need (2 * Array.length f.idx) in
    let idx = Array.make cap 0 and vals = Array.make cap 0. in
    Array.blit f.idx 0 idx 0 used;
    Array.blit f.vals 0 vals 0 used;
    f.idx <- idx;
    f.vals <- vals
  end

let factorize t ~col_ptr ~row_ind ~values ~basis =
  let m = t.m in
  if Array.length basis <> m then invalid_arg "Sparse_lu.factorize: basis length is not m";
  let f = t.spare in
  let l = f.l and u = f.u in
  let row_count = t.row_count and len_start = t.len_start and order = t.order in
  let pinv = t.pinv and x = t.x and mark = t.mark in
  let topo = t.topo and stack = t.stack and sptr = t.sptr in
  Array.fill row_count 0 m 0;
  Array.fill len_start 0 (m + 2) 0;
  for s = 0 to m - 1 do
    let j = basis.(s) in
    for e = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let r = row_ind.(e) in
      if r < 0 || r >= m then invalid_arg "Sparse_lu.factorize: row out of range";
      row_count.(r) <- row_count.(r) + 1
    done;
    let len = col_ptr.(j + 1) - col_ptr.(j) in
    len_start.(len + 1) <- len_start.(len + 1) + 1
  done;
  (* Static Markowitz approximation: eliminate thin columns first, equal
     lengths in slot order (a counting sort, stable in the slot). *)
  for len = 1 to m + 1 do
    len_start.(len) <- len_start.(len) + len_start.(len - 1)
  done;
  for s = 0 to m - 1 do
    let j = basis.(s) in
    let len = col_ptr.(j + 1) - col_ptr.(j) in
    order.(len_start.(len)) <- s;
    len_start.(len) <- len_start.(len) + 1
  done;
  Array.fill pinv 0 m (-1);
  Array.fill mark 0 m (-1);
  (* L's rows stay original row ids during elimination (the DFS walks
     original rows); they are remapped to pivot coordinates at the end. *)
  l.ptr.(0) <- 0;
  u.ptr.(0) <- 0;
  let nnz = ref m in
  for k = 0 to m - 1 do
    let s = order.(k) in
    let j = basis.(s) in
    let cs = col_ptr.(j) and ce = col_ptr.(j + 1) in
    if ce = cs then raise Singular;
    (* Symbolic step: the nonzero pattern of L^-1 A_s is the set of rows
       reachable from the column's rows through already-eliminated L
       columns; a DFS postorder gives it in topological order. *)
    let top = ref m in
    for e = cs to ce - 1 do
      let seed = row_ind.(e) in
      if mark.(seed) <> k then begin
        let depth = ref 0 in
        stack.(0) <- seed;
        sptr.(0) <- 0;
        mark.(seed) <- k;
        while !depth >= 0 do
          let v = stack.(!depth) in
          let jv = pinv.(v) in
          let c0 = if jv >= 0 then l.ptr.(jv) else 0 in
          let nc = if jv >= 0 then l.ptr.(jv + 1) - c0 else 0 in
          let children = l.idx in
          let cur = ref sptr.(!depth) in
          while !cur < nc && mark.(children.(c0 + !cur)) = k do
            incr cur
          done;
          if !cur < nc then begin
            let c = children.(c0 + !cur) in
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
    for e = cs to ce - 1 do
      let r = row_ind.(e) in
      x.(r) <- x.(r) +. values.(e)
    done;
    let li = l.idx and lv = l.vals in
    for tt = !top to m - 1 do
      let v = topo.(tt) in
      let jv = pinv.(v) in
      if jv >= 0 then begin
        let xv = x.(v) in
        if xv <> 0. then
          for e = l.ptr.(jv) to l.ptr.(jv + 1) - 1 do
            x.(li.(e)) <- x.(li.(e)) -. (lv.(e) *. xv)
          done
      end
    done;
    (* Pivot selection over the not-yet-pivoted pattern rows. *)
    let vmax = ref 0. in
    for tt = !top to m - 1 do
      let v = topo.(tt) in
      if pinv.(v) < 0 then begin
        let a = abs_float x.(v) in
        if a > !vmax then vmax := a
      end
    done;
    if !vmax < Tol.singular then begin
      for tt = !top to m - 1 do
        x.(topo.(tt)) <- 0.
      done;
      raise Singular
    end;
    let prow = ref (-1) and pcount = ref max_int and pmag = ref 0. in
    for tt = !top to m - 1 do
      let v = topo.(tt) in
      if pinv.(v) < 0 then begin
        let a = abs_float x.(v) in
        if
          a >= Tol.lu_threshold *. !vmax
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
    let l0 = l.ptr.(k) and u0 = u.ptr.(k) in
    reserve l l0 (l0 + m - !top);
    reserve u u0 (u0 + m - !top);
    let li = l.idx and lv = l.vals and ui = u.idx and uv = u.vals in
    let il = ref l0 and iu = ref u0 in
    for tt = !top to m - 1 do
      let v = topo.(tt) in
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
    l.ptr.(k + 1) <- !il;
    u.ptr.(k + 1) <- !iu;
    nnz := !nnz + (!iu - u0) + (!il - l0);
    f.u_diag.(k) <- piv;
    f.p.(k) <- prow;
    pinv.(prow) <- k;
    f.q.(k) <- s
  done;
  let li = l.idx in
  for e = 0 to l.ptr.(m) - 1 do
    li.(e) <- pinv.(li.(e))
  done;
  f.nnz <- !nnz;
  t.spare <- t.live;
  t.live <- f

let nnz t = t.live.nnz

let solve t b w =
  let m = t.m and z = t.z and f = t.live in
  let p = f.p and q = f.q and u_diag = f.u_diag in
  let lp = f.l.ptr and li = f.l.idx and lv = f.l.vals in
  let up = f.u.ptr and ui = f.u.idx and uv = f.u.vals in
  for k = 0 to m - 1 do
    z.(k) <- b.(p.(k))
  done;
  for k = 0 to m - 1 do
    let v = z.(k) in
    if v <> 0. then
      for e = lp.(k) to lp.(k + 1) - 1 do
        z.(li.(e)) <- z.(li.(e)) -. (lv.(e) *. v)
      done
  done;
  for k = m - 1 downto 0 do
    let v = z.(k) /. u_diag.(k) in
    z.(k) <- v;
    if v <> 0. then
      for e = up.(k) to up.(k + 1) - 1 do
        z.(ui.(e)) <- z.(ui.(e)) -. (uv.(e) *. v)
      done
  done;
  for k = 0 to m - 1 do
    w.(q.(k)) <- z.(k)
  done

let solve_t t c y =
  let m = t.m and z = t.z and f = t.live in
  let p = f.p and q = f.q and u_diag = f.u_diag in
  let lp = f.l.ptr and li = f.l.idx and lv = f.l.vals in
  let up = f.u.ptr and ui = f.u.idx and uv = f.u.vals in
  for k = 0 to m - 1 do
    z.(k) <- c.(q.(k))
  done;
  (* U^T is lower triangular in pivot coordinates: forward substitution
     reading U's columns as rows of the transpose. *)
  for k = 0 to m - 1 do
    let acc = ref z.(k) in
    for e = up.(k) to up.(k + 1) - 1 do
      acc := !acc -. (uv.(e) *. z.(ui.(e)))
    done;
    z.(k) <- !acc /. u_diag.(k)
  done;
  for k = m - 1 downto 0 do
    let acc = ref z.(k) in
    for e = lp.(k) to lp.(k + 1) - 1 do
      acc := !acc -. (lv.(e) *. z.(li.(e)))
    done;
    z.(k) <- !acc
  done;
  for k = 0 to m - 1 do
    y.(p.(k)) <- z.(k)
  done
