type t = { graph : Bgraph.t; left_copy : int array; right_copy : int array }

(* One side of the expansion: vertex [u] owns expanded vertices
   [off.(u), off.(u + 1)), max cap 1 of them, and [next.(u)] is the copy
   the next edge at [u] goes to. *)
type side = { cap : int array; off : int array; next : int array }
type copies = { left : side; right : side }

let side n cap =
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    if cap.(u) < 0 then invalid_arg "Bmatching.expand: negative capacity";
    off.(u + 1) <- off.(u) + max cap.(u) 1
  done;
  { cap; off; next = Array.make n 0 }

let copies ~nl ~nr ~cl ~cr = { left = side nl cl; right = side nr cr }

(* The round-robin rule: the k-th edge at [u] goes to copy [k mod cap u],
   the counter wrapping around at [cap u]. *)
let copy s u =
  let c = s.cap.(u) in
  if c = 0 then invalid_arg "Bmatching.expand: edge incident to zero-capacity vertex";
  let k = s.next.(u) in
  s.next.(u) <- (if k + 1 = c then 0 else k + 1);
  s.off.(u) + k

let size s = s.off.(Array.length s.off - 1)
let copy_left c u = copy c.left u
let copy_right c v = copy c.right v
let expanded_nl c = size c.left
let expanded_nr c = size c.right

let expand (g : Bgraph.t) ~cl ~cr =
  let c = copies ~nl:g.Bgraph.nl ~nr:g.Bgraph.nr ~cl ~cr in
  let ne = Bgraph.num_edges g in
  let left_copy = Array.make ne 0 and right_copy = Array.make ne 0 in
  let graph =
    Bgraph.init ~nl:(expanded_nl c) ~nr:(expanded_nr c) ne (fun e ->
        let { Bgraph.u; v } = Bgraph.edge g e in
        let u' = copy_left c u in
        let v' = copy_right c v in
        left_copy.(e) <- u' - c.left.off.(u);
        right_copy.(e) <- v' - c.right.off.(v);
        { Bgraph.u = u'; v = v' })
  in
  { graph; left_copy; right_copy }

(* Incremental maximum b-matching over unit-demand flows.

   Rather than maintain a matching on per-flow edges (useless across slots:
   every scheduled flow leaves, taking its matched edges with it), we run
   max-flow on the PORT-PAIR graph: pair (u, v) is one edge of capacity
   [live], the number of pending flows from u to v, with node capacities
   cap_in / cap_out.  Unit-demand flows on the same pair are interchangeable,
   so the flow value equals the maximum number of schedulable flows, and the
   pair-level flow [x] survives churn — when a bound (matched) flow departs,
   its unit rebinds to a surviving parallel flow in O(1) instead of
   re-deriving the matching.

   A dirty flag preserves the invariant "not dirty implies [x] is a maximum
   flow", justified by residual-edge-set arguments (augmenting-path existence
   depends only on which residual edges exist, not their capacities):

   - adding a flow to an unsaturated pair, or binding it immediately when
     both ports have spare degree, keeps the current flow maximum;
   - adding a flow to a saturated pair creates a forward residual edge:
     dirty;
   - removing a free flow, or a bound flow that rebinds, only shrinks the
     residual edge set: still maximum;
   - removing a bound flow with no parallel survivor loses a unit: dirty.

   [refresh] clears the flag by BFS augmentation over ports (O(nl * nr) per
   search, one failed search to certify maximality), so steady-state
   per-slot cost is proportional to churn, independent of queue depth. *)
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

let incremental = Incremental.create

let max_copy_degree (g : Bgraph.t) ~cl ~cr =
  let dl, dr = Bgraph.degrees g in
  let worst = ref 0 in
  Array.iteri
    (fun u d -> if d > 0 then worst := max !worst ((d + cl.(u) - 1) / cl.(u)))
    dl;
  Array.iteri
    (fun v d -> if d > 0 then worst := max !worst ((d + cr.(v) - 1) / cr.(v)))
    dr;
  !worst
