type t = { graph : Bgraph.t; left_copy : int array; right_copy : int array }

(* One side of the expansion: vertex [u] owns expanded vertices
   [off.(u), off.(u + 1)), max cap 1 of them, and [next.(u)] is the copy
   the next edge at [u] goes to.  [ones] holds when every capacity is
   exactly 1, so every vertex is its own only copy. *)
type side = { cap : int array; off : int array; next : int array; ones : bool }
type copies = { left : side; right : side; identity : bool }

let side n cap =
  let off = Array.make (n + 1) 0 in
  let ones = ref true in
  for u = 0 to n - 1 do
    if cap.(u) < 0 then invalid_arg "Bmatching.expand: negative capacity";
    if cap.(u) <> 1 then ones := false;
    off.(u + 1) <- off.(u) + max cap.(u) 1
  done;
  { cap; off; next = Array.make n 0; ones = !ones }

let copies ~nl ~nr ~cl ~cr =
  let left = side nl cl and right = side nr cr in
  { left; right; identity = left.ones && right.ones }

let identity c = c.identity

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
   max-flow on the PORT-PAIR graph: pair (u, v) is one edge whose capacity
   is the number of pending flows from u to v, with node capacities
   cap_in / cap_out.  Unit-demand flows on the same pair are
   interchangeable, so the flow value equals the maximum number of
   schedulable flows, and the pair-level flow survives churn — when a bound
   (matched) flow departs, its unit rebinds to a surviving parallel flow in
   O(1) instead of re-deriving the matching.

   A dirty flag preserves the invariant "not dirty implies the pair flow is
   maximum", justified by residual-edge-set arguments (augmenting-path
   existence depends only on which residual edges exist, not their
   capacities):

   - adding a flow to an unsaturated pair, or binding it immediately when
     both ports have spare degree, keeps the current flow maximum;
   - adding a flow to a saturated pair creates a forward residual edge:
     dirty;
   - removing a free flow, or a bound flow that rebinds, only shrinks the
     residual edge set: still maximum;
   - removing a bound flow with no parallel survivor loses a unit: dirty.

   [refresh] clears the flag by BFS augmentation over ports (O(nl * nr) per
   search, one failed search to certify maximality), so steady-state
   per-slot cost is proportional to churn, independent of queue depth.

   The state is flat.  Each pending flow sits in a slot of the per-slot
   arrays, found from its id through an int-keyed table, and each pair
   owns two intrusive lists threaded through the slots' [next]/[prev]
   links: list [2p] holds pair p's free flows, oldest at the head, and list
   [2p + 1] its bound flows, newest at the tail.  A pair's edge capacity
   is the length of both lists together and its flow the length of the
   bound one, so the residual tests are list heads: forward when the free
   list is non-empty, backward when the bound list is.  A departing flow
   leaves its list at once and its slot goes back on the vacant chain, so
   nothing of it lingers and its id may be added again. *)
module Incremental = struct
  module Ids = Flowsched_util.Int_hashtbl

  type stats = { fast_binds : int; rebinds : int; searches : int; augments : int }

  type t = {
    nl : int;
    nr : int;
    cap_in : int array;
    cap_out : int array;
    (* the lists, two per pair: [head] and [tail] slots, -1 when empty *)
    head : int array;
    tail : int array;
    slot_of : int Ids.t;
    (* per slot: the flow id, its list, and its neighbours in the list; a
       vacant slot is chained to the next vacant one through [next] *)
    mutable ids : int array;
    mutable list_of : int array;
    mutable next : int array;
    mutable prev : int array;
    mutable vacant : int;
    deg_l : int array;
    deg_r : int array;
    mutable value : int;
    mutable dirty : bool;
    (* BFS scratch: -2 unvisited, -1 BFS source, >= 0 the pair we came by;
       the queue holds left port u as u and right port v as nl + v, each
       port at most once. *)
    prev_l : int array;
    prev_r : int array;
    queue : int array;
    mutable fast_binds : int;
    mutable rebinds : int;
    mutable searches : int;
    mutable augments : int;
  }

  let free_list p = 2 * p
  let bound_list p = (2 * p) + 1

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
      head = Array.make (2 * nl * nr) (-1);
      tail = Array.make (2 * nl * nr) (-1);
      slot_of = Ids.create 256;
      ids = [||];
      list_of = [||];
      next = [||];
      prev = [||];
      vacant = -1;
      deg_l = Array.make nl 0;
      deg_r = Array.make nr 0;
      value = 0;
      dirty = false;
      prev_l = Array.make nl (-2);
      prev_r = Array.make nr (-2);
      queue = Array.make (nl + nr) 0;
      fast_binds = 0;
      rebinds = 0;
      searches = 0;
      augments = 0;
    }

  (* Double the slot arrays (64 slots at first), chaining the new slots
     vacant in order. *)
  let grow t =
    let n = Array.length t.ids in
    let n' = max 64 (2 * n) in
    let extend a =
      let a' = Array.make n' (-1) in
      Array.blit a 0 a' 0 n;
      a'
    in
    t.ids <- extend t.ids;
    t.list_of <- extend t.list_of;
    t.next <- extend t.next;
    t.prev <- extend t.prev;
    for s = n to n' - 2 do
      t.next.(s) <- s + 1
    done;
    t.vacant <- n

  (* Append slot [s] to the tail of list [l]. *)
  let push t l s =
    let last = t.tail.(l) in
    t.list_of.(s) <- l;
    t.next.(s) <- -1;
    t.prev.(s) <- last;
    if last < 0 then t.head.(l) <- s else t.next.(last) <- s;
    t.tail.(l) <- s

  let unlink t s =
    let l = t.list_of.(s) and n = t.next.(s) and p = t.prev.(s) in
    if p < 0 then t.head.(l) <- n else t.next.(p) <- n;
    if n < 0 then t.tail.(l) <- p else t.prev.(n) <- p

  let move t s l =
    unlink t s;
    push t l s

  let add t ~id ~src ~dst =
    if src < 0 || src >= t.nl || dst < 0 || dst >= t.nr then
      invalid_arg "Bmatching.Incremental.add: port out of range";
    if Ids.mem t.slot_of id then invalid_arg "Bmatching.Incremental.add: duplicate flow id";
    if t.vacant < 0 then grow t;
    let s = t.vacant in
    t.vacant <- t.next.(s);
    t.ids.(s) <- id;
    Ids.add t.slot_of id s;
    let p = (src * t.nr) + dst in
    if t.deg_l.(src) < t.cap_in.(src) && t.deg_r.(dst) < t.cap_out.(dst) then begin
      push t (bound_list p) s;
      t.deg_l.(src) <- t.deg_l.(src) + 1;
      t.deg_r.(dst) <- t.deg_r.(dst) + 1;
      t.value <- t.value + 1;
      t.fast_binds <- t.fast_binds + 1
    end
    else begin
      (* An empty free list means the pair was saturated before this
         arrival: a forward residual edge just appeared, so an augmenting
         path may now exist. *)
      if t.head.(free_list p) < 0 then t.dirty <- true;
      push t (free_list p) s
    end

  (* Withdraw the flow in slot [s], whose id has left [slot_of]. *)
  let remove_slot t s =
    let l = t.list_of.(s) in
    unlink t s;
    t.next.(s) <- t.vacant;
    t.vacant <- s;
    if l land 1 = 1 then begin
      let p = l lsr 1 in
      let s' = t.head.(free_list p) in
      if s' >= 0 then begin
        (* Hand the matched unit to the oldest surviving parallel flow. *)
        move t s' l;
        t.rebinds <- t.rebinds + 1
      end
      else begin
        let u = p / t.nr and v = p mod t.nr in
        t.deg_l.(u) <- t.deg_l.(u) - 1;
        t.deg_r.(v) <- t.deg_r.(v) - 1;
        t.value <- t.value - 1;
        t.dirty <- true
      end
    end

  let remove t id =
    match Ids.find t.slot_of id with
    | exception Not_found -> invalid_arg "Bmatching.Incremental.remove: unknown flow id"
    | s ->
        Ids.remove t.slot_of id;
        remove_slot t s

  (* Walk the BFS tree back from right port [v], binding on forward pairs
     and unbinding on backward ones; returns the path's source port. *)
  let rec apply_path t v =
    let p = t.prev_r.(v) in
    move t t.head.(free_list p) (bound_list p);
    let u = p / t.nr in
    if t.prev_l.(u) = -1 then u
    else begin
      let p' = t.prev_l.(u) in
      move t t.tail.(bound_list p') (free_list p');
      apply_path t (p' mod t.nr)
    end

  (* One BFS over ports: multi-source from left ports with spare in-degree,
     forward along pairs with a free flow, backward along pairs with a
     bound flow, terminating at a right port with spare out-degree.  On
     success, walk the BFS tree back applying the path: bind the oldest free
     flow on forward pairs, unbind the newest bound flow on backward
     pairs. *)
  let augment_once t =
    t.searches <- t.searches + 1;
    Array.fill t.prev_l 0 t.nl (-2);
    Array.fill t.prev_r 0 t.nr (-2);
    let q = t.queue in
    let qt = ref 0 in
    for u = 0 to t.nl - 1 do
      if t.deg_l.(u) < t.cap_in.(u) then begin
        t.prev_l.(u) <- -1;
        q.(!qt) <- u;
        incr qt
      end
    done;
    let qh = ref 0 and found = ref (-1) in
    while !found < 0 && !qh < !qt do
      let node = q.(!qh) in
      incr qh;
      if node < t.nl then begin
        let base = node * t.nr in
        let v = ref 0 in
        while !found < 0 && !v < t.nr do
          let p = base + !v in
          if t.head.(free_list p) >= 0 && t.prev_r.(!v) = -2 then begin
            t.prev_r.(!v) <- p;
            if t.deg_r.(!v) < t.cap_out.(!v) then found := !v
            else begin
              q.(!qt) <- t.nl + !v;
              incr qt
            end
          end;
          incr v
        done
      end
      else begin
        let v = node - t.nl in
        for u = 0 to t.nl - 1 do
          let p = (u * t.nr) + v in
          if t.head.(bound_list p) >= 0 && t.prev_l.(u) = -2 then begin
            t.prev_l.(u) <- p;
            q.(!qt) <- u;
            incr qt
          end
        done
      end
    done;
    if !found < 0 then false
    else begin
      let src = apply_path t !found in
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

  let pending t = Ids.length t.slot_of
  let mem t id = Ids.mem t.slot_of id

  (* Pairs from last to first, each bound list from oldest to newest, so
     consing gives pairs in increasing order, newest first within each. *)
  let matched t =
    refresh t;
    let out = ref [] in
    for p = (t.nl * t.nr) - 1 downto 0 do
      let s = ref t.head.(bound_list p) in
      while !s >= 0 do
        out := t.ids.(!s) :: !out;
        s := t.next.(!s)
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
