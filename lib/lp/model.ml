(* A tiny growable array, local to this library (OCaml 5.1's stdlib predates
   Dynarray). *)
module Dyn = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let add d x =
    if d.len = Array.length d.data then begin
      let cap = max 8 (2 * Array.length d.data) in
      let data = Array.make cap x in
      Array.blit d.data 0 data 0 d.len;
      d.data <- data
    end;
    d.data.(d.len) <- x;
    d.len <- d.len + 1

  let get d i =
    if i < 0 || i >= d.len then invalid_arg "Dyn.get";
    d.data.(i)

  let length d = d.len
  let iter f d = for i = 0 to d.len - 1 do f d.data.(i) done
end

type var = int
type row = int
type sense = Le | Ge | Eq

type row_data = { terms : (var * float) list; sense : sense; rhs : float }

type t = {
  mutable objs : float array;
  mutable ubs : float array;
  mutable nvars : int;
  rows : row_data Dyn.t;
}

let create () = { objs = [||]; ubs = [||]; nvars = 0; rows = Dyn.create () }

let grow_vars t =
  if t.nvars = Array.length t.objs then begin
    let cap = max 16 (2 * Array.length t.objs) in
    let objs = Array.make cap 0. in
    Array.blit t.objs 0 objs 0 t.nvars;
    t.objs <- objs;
    let ubs = Array.make cap infinity in
    Array.blit t.ubs 0 ubs 0 t.nvars;
    t.ubs <- ubs
  end

let add_var ?(obj = 0.) ?(ub = infinity) t =
  if ub < 0. || Float.is_nan ub then invalid_arg "Model.add_var: negative upper bound";
  grow_vars t;
  let v = t.nvars in
  t.objs.(v) <- obj;
  t.ubs.(v) <- ub;
  t.nvars <- t.nvars + 1;
  v

let merge_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (v, c) ->
      match Hashtbl.find_opt tbl v with
      | Some c0 -> Hashtbl.replace tbl v (c0 +. c)
      | None -> Hashtbl.add tbl v c)
    terms;
  let merged = Hashtbl.fold (fun v c acc -> if c = 0. then acc else (v, c) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) merged

let add_constraint t terms sense rhs =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= t.nvars then invalid_arg "Model.add_constraint: unknown variable")
    terms;
  let r = Dyn.length t.rows in
  Dyn.add t.rows { terms = merge_terms terms; sense; rhs };
  r

let num_vars t = t.nvars
let num_rows t = Dyn.length t.rows
let objective_coeff t v = t.objs.(v)
let var_upper t v = t.ubs.(v)
let row_terms t r = (Dyn.get t.rows r).terms
let row_sense t r = (Dyn.get t.rows r).sense
let row_rhs t r = (Dyn.get t.rows r).rhs

let row_activity t x r =
  List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0. (row_terms t r)

let is_feasible ?(tol = 1e-6) t x =
  if Array.length x < t.nvars then false
  else begin
    let ok = ref true in
    for v = 0 to t.nvars - 1 do
      if x.(v) < -.tol || x.(v) > t.ubs.(v) +. tol then ok := false
    done;
    Dyn.iter
      (fun { terms; sense; rhs } ->
        let act = List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0. terms in
        let row_ok =
          match sense with
          | Le -> act <= rhs +. tol
          | Ge -> act >= rhs -. tol
          | Eq -> abs_float (act -. rhs) <= tol
        in
        if not row_ok then ok := false)
      t.rows;
    !ok
  end

type csc = { col_ptr : int array; row_ind : int array; values : float array }

(* Column-compressed form of the structural constraint matrix, built in one
   pass over the rows so each column's entries come out in increasing row
   order.  This is the once-per-solve layout the simplex engine works from,
   replacing per-pivot walks over the [terms] assoc lists. *)
let to_csc t =
  let n = t.nvars and m = num_rows t in
  let col_ptr = Array.make (n + 1) 0 in
  Dyn.iter
    (fun r -> List.iter (fun (v, _) -> col_ptr.(v + 1) <- col_ptr.(v + 1) + 1) r.terms)
    t.rows;
  for v = 1 to n do
    col_ptr.(v) <- col_ptr.(v) + col_ptr.(v - 1)
  done;
  let nnz = col_ptr.(n) in
  let row_ind = Array.make nnz 0 and values = Array.make nnz 0. in
  let fill = Array.sub col_ptr 0 (max n 1) in
  for r = 0 to m - 1 do
    List.iter
      (fun (v, c) ->
        let k = fill.(v) in
        row_ind.(k) <- r;
        values.(k) <- c;
        fill.(v) <- k + 1)
      (Dyn.get t.rows r).terms
  done;
  { col_ptr; row_ind; values }
