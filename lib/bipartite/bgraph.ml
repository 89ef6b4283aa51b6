type edge = { u : int; v : int }
type t = { nl : int; nr : int; edges : edge array }

let check ~nl ~nr ({ u; v } as e) =
  if u < 0 || u >= nl || v < 0 || v >= nr then
    invalid_arg "Bgraph.create: endpoint out of range";
  e

let create ~nl ~nr pairs = { nl; nr; edges = Array.map (fun (u, v) -> check ~nl ~nr { u; v }) pairs }
let init ~nl ~nr n f = { nl; nr; edges = Array.init n (fun i -> check ~nl ~nr (f i)) }

let num_edges g = Array.length g.edges
let edge g i = g.edges.(i)

let degrees g =
  let dl = Array.make g.nl 0 and dr = Array.make g.nr 0 in
  Array.iter
    (fun { u; v } ->
      dl.(u) <- dl.(u) + 1;
      dr.(v) <- dr.(v) + 1)
    g.edges;
  (dl, dr)

let max_degree g =
  let dl, dr = degrees g in
  let m = ref 0 in
  Array.iter (fun d -> if d > !m then m := d) dl;
  Array.iter (fun d -> if d > !m then m := d) dr;
  !m

let adj_left g =
  let adj = Array.make g.nl [] in
  for i = Array.length g.edges - 1 downto 0 do
    adj.(g.edges.(i).u) <- i :: adj.(g.edges.(i).u)
  done;
  adj

let adj_right g =
  let adj = Array.make g.nr [] in
  for i = Array.length g.edges - 1 downto 0 do
    adj.(g.edges.(i).v) <- i :: adj.(g.edges.(i).v)
  done;
  adj

let is_b_matching g ~cl ~cr ids =
  let dl = Array.make g.nl 0 and dr = Array.make g.nr 0 in
  List.for_all
    (fun i ->
      let { u; v } = g.edges.(i) in
      dl.(u) <- dl.(u) + 1;
      dr.(v) <- dr.(v) + 1;
      dl.(u) <= cl.(u) && dr.(v) <= cr.(v))
    ids

let is_matching g ids =
  is_b_matching g ~cl:(Array.make g.nl 1) ~cr:(Array.make g.nr 1) ids
