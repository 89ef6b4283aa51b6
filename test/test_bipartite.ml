(* Tests for flowsched_bipartite: graphs, Hopcroft-Karp, Hungarian,
   edge coloring, BvN decomposition, b-matching expansion.  Small random
   graphs are checked against exhaustive oracles. *)

open Flowsched_bipartite

(* --- oracles --- *)

(* Exhaustive maximum-matching size by branching on edges. *)
let brute_max_matching_size (g : Bgraph.t) =
  let ne = Bgraph.num_edges g in
  let used_l = Array.make g.Bgraph.nl false and used_r = Array.make g.Bgraph.nr false in
  let rec go i =
    if i = ne then 0
    else begin
      let { Bgraph.u; v } = Bgraph.edge g i in
      let skip = go (i + 1) in
      if used_l.(u) || used_r.(v) then skip
      else begin
        used_l.(u) <- true;
        used_r.(v) <- true;
        let take = 1 + go (i + 1) in
        used_l.(u) <- false;
        used_r.(v) <- false;
        max take skip
      end
    end
  in
  go 0

(* Exhaustive maximum-weight matching by branching on edges. *)
let brute_max_weight (g : Bgraph.t) w =
  let ne = Bgraph.num_edges g in
  let used_l = Array.make g.Bgraph.nl false and used_r = Array.make g.Bgraph.nr false in
  let rec go i =
    if i = ne then 0.
    else begin
      let { Bgraph.u; v } = Bgraph.edge g i in
      let skip = go (i + 1) in
      if used_l.(u) || used_r.(v) then skip
      else begin
        used_l.(u) <- true;
        used_r.(v) <- true;
        let take = w.(i) +. go (i + 1) in
        used_l.(u) <- false;
        used_r.(v) <- false;
        max take skip
      end
    end
  in
  go 0

let random_graph seed ~nl ~nr ~ne =
  let g = Flowsched_util.Prng.create seed in
  let pairs =
    Array.init ne (fun _ ->
        (Flowsched_util.Prng.int g nl, Flowsched_util.Prng.int g nr))
  in
  Bgraph.create ~nl ~nr pairs

(* A multigraph past the Hungarian's sparse crossover, with nl <> nr
   either way, so the square completion has dummy rows or columns.  Three
   draws in four have 24-64 vertices per side and integer weights -1..3,
   so negative, zero and tied weights are common.  The fourth is at paper
   scale: 80-160 vertices per side and integer weights 0..30, the ranges
   of MinRTime's ages and MaxWeight's queue counts there.  Each left
   vertex gets 2-8 edges, about a quarter of them parallel to its previous
   one, and the edges come in shuffled order.  Returns the graph and its
   integer weight draw. *)
let wide_graph seed =
  let g = Flowsched_util.Prng.create seed in
  let int lo hi = lo + Flowsched_util.Prng.int g (hi - lo + 1) in
  let paper = Flowsched_util.Prng.int g 4 = 0 in
  let lo, hi = if paper then (80, 160) else (24, 64) in
  let nl = int lo hi in
  let nr = match int lo (hi - 1) with r when r >= nl -> r + 1 | r -> r in
  let pairs = ref [] in
  for u = 0 to nl - 1 do
    let v = ref (int 0 (nr - 1)) in
    for _ = 1 to int 2 8 do
      if Flowsched_util.Prng.int g 4 > 0 then v := int 0 (nr - 1);
      pairs := (u, !v) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  for k = Array.length pairs - 1 downto 1 do
    let r = Flowsched_util.Prng.int g (k + 1) in
    let x = pairs.(k) in
    pairs.(k) <- pairs.(r);
    pairs.(r) <- x
  done;
  let weight prng =
    float_of_int
      (if paper then Flowsched_util.Prng.int prng 31 else Flowsched_util.Prng.int prng 5 - 1)
  in
  (Bgraph.create ~nl ~nr pairs, weight)

(* --- bgraph --- *)

let test_bgraph_create_validates () =
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Bgraph.create: endpoint out of range")
    (fun () -> ignore (Bgraph.create ~nl:2 ~nr:2 [| (0, 2) |]))

let test_bgraph_degrees () =
  let g = Bgraph.create ~nl:3 ~nr:2 [| (0, 0); (0, 1); (1, 0); (0, 0) |] in
  let dl, dr = Bgraph.degrees g in
  Alcotest.(check (array int)) "left degrees" [| 3; 1; 0 |] dl;
  Alcotest.(check (array int)) "right degrees" [| 3; 1 |] dr;
  Alcotest.(check int) "max degree" 3 (Bgraph.max_degree g)

let test_bgraph_adjacency () =
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (1, 1); (0, 1) |] in
  let adj = Bgraph.adj_left g in
  Alcotest.(check (list int)) "adj of 0" [ 0; 2 ] adj.(0);
  Alcotest.(check (list int)) "adj of 1" [ 1 ] adj.(1);
  let radj = Bgraph.adj_right g in
  Alcotest.(check (list int)) "radj of 1" [ 1; 2 ] radj.(1)

let test_bgraph_is_matching () =
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (1, 1); (0, 1) |] in
  Alcotest.(check bool) "disjoint edges" true (Bgraph.is_matching g [ 0; 1 ]);
  Alcotest.(check bool) "shared left vertex" false (Bgraph.is_matching g [ 0; 2 ]);
  Alcotest.(check bool) "empty" true (Bgraph.is_matching g [])

let test_bgraph_is_b_matching () =
  let g = Bgraph.create ~nl:1 ~nr:2 [| (0, 0); (0, 1); (0, 0) |] in
  Alcotest.(check bool) "within caps" true
    (Bgraph.is_b_matching g ~cl:[| 2 |] ~cr:[| 1; 1 |] [ 0; 1 ]);
  Alcotest.(check bool) "left cap exceeded" false
    (Bgraph.is_b_matching g ~cl:[| 2 |] ~cr:[| 2; 1 |] [ 0; 1; 2 ]);
  Alcotest.(check bool) "right cap exceeded" false
    (Bgraph.is_b_matching g ~cl:[| 3 |] ~cr:[| 1; 1 |] [ 0; 2 ])

(* --- Hopcroft-Karp --- *)

let test_hk_perfect () =
  let g = Bgraph.create ~nl:3 ~nr:3 [| (0, 0); (0, 1); (1, 1); (1, 2); (2, 2); (2, 0) |] in
  let m = Matching.max_cardinality g in
  Alcotest.(check int) "perfect" 3 (List.length m);
  Alcotest.(check bool) "valid" true (Bgraph.is_matching g m)

let test_hk_needs_augmenting () =
  (* Greedy gets stuck at 1; the optimum is 2. *)
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (0, 1); (1, 0) |] in
  Alcotest.(check int) "size 2" 2 (Matching.max_cardinality_size g)

let test_hk_empty () =
  let g = Bgraph.create ~nl:3 ~nr:3 [||] in
  Alcotest.(check (list int)) "no edges" [] (Matching.max_cardinality g)

let test_hk_parallel_edges () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0); (0, 0); (0, 0) |] in
  Alcotest.(check int) "one of the parallels" 1 (Matching.max_cardinality_size g)

let prop_hk_matches_brute_force =
  QCheck2.Test.make ~name:"Hopcroft-Karp = brute force" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 6) (int_range 1 6) (int_range 0 12))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let m = Matching.max_cardinality g in
      Bgraph.is_matching g m && List.length m = brute_max_matching_size g)

(* --- weighted matching --- *)

let test_hungarian_simple () =
  (* picking the heavy diagonal beats the greedy corner *)
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (0, 1); (1, 0) |] in
  let w = [| 10.; 7.; 7. |] in
  let m = Weighted_matching.max_weight g w in
  Alcotest.(check (float 1e-9)) "weight 14" 14. (Weighted_matching.weight_of w m)

let test_hungarian_prefers_unmatched_over_negative () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0) |] in
  let m = Weighted_matching.max_weight g [| -5. |] in
  Alcotest.(check (list int)) "skips negative edge" [] m

let test_hungarian_rectangular () =
  let g = Bgraph.create ~nl:1 ~nr:3 [| (0, 0); (0, 1); (0, 2) |] in
  let m = Weighted_matching.max_weight g [| 1.; 9.; 4. |] in
  Alcotest.(check (list int)) "takes the best" [ 1 ] m

let test_hungarian_parallel_edges () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0); (0, 0) |] in
  let m = Weighted_matching.max_weight g [| 2.; 5. |] in
  Alcotest.(check (list int)) "heavier parallel edge" [ 1 ] m

let prop_hungarian_matches_brute_force =
  QCheck2.Test.make ~name:"Hungarian = brute force" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 5) (int_range 1 5) (int_range 0 10))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let prng = Flowsched_util.Prng.create (seed + 1) in
      let w =
        Array.init ne (fun _ -> float_of_int (Flowsched_util.Prng.int prng 21 - 4))
      in
      let m = Weighted_matching.max_weight g w in
      Bgraph.is_matching g m
      && abs_float (Weighted_matching.weight_of w m -. brute_max_weight g w) < 1e-9)

(* The tie-break contract: on multigraphs with parallel edges and small
   integer weights, where many matchings share the maximum weight, the
   library returns exactly the reference's edge list, order included.  The
   weight property above would accept any maximum matching. *)
let prop_max_weight_matches_reference =
  QCheck2.Test.make ~name:"max_weight = reference, order included" ~count:500
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 8) (int_range 1 8) (int_range 0 24))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let prng = Flowsched_util.Prng.create (seed + 1) in
      let w = Array.init ne (fun _ -> float_of_int (Flowsched_util.Prng.int prng 5 - 1)) in
      Weighted_matching.max_weight g w = Reference.max_weight g w)

(* A solve's result and its tree steps, read from its span. *)
let traced_solve f =
  let module Trace = Flowsched_obs.Trace in
  Trace.start ();
  let r = Fun.protect ~finally:Trace.stop f in
  match List.find_opt (fun sp -> sp.Trace.name = "matching.hungarian") (Trace.spans ()) with
  | Some sp -> (
      match List.assoc_opt "steps" sp.Trace.args with
      | Some (Flowsched_util.Json.Int steps) -> (r, steps)
      | _ -> (r, -1))
  | None -> (r, -1)

(* The same contract past the crossover, on the sparse solver, and the
   same decisions: every column that joins a tree in the reference joins
   one here, so the tree steps agree too, also where a different choice
   among equal keys would return the same edges. *)
let prop_max_weight_matches_reference_wide =
  QCheck2.Test.make ~name:"max_weight = reference on wide graphs, order and steps included"
    ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g, weight = wide_graph seed in
      let prng = Flowsched_util.Prng.create (seed + 1) in
      let w = Array.init (Bgraph.num_edges g) (fun _ -> weight prng) in
      let m, steps = traced_solve (fun () -> Weighted_matching.max_weight g w) in
      let before = !Reference.hungarian_steps in
      let want = Reference.max_weight g w in
      m = want && steps = !Reference.hungarian_steps - before)

(* With fractional weights the edge lists may differ, because the two
   solvers round differently, but the total weight must not. *)
let prop_max_weight_optimal_fractional_wide =
  QCheck2.Test.make ~name:"max_weight optimal on wide graphs, fractional weights" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g, _ = wide_graph seed in
      let prng = Flowsched_util.Prng.create (seed + 1) in
      let w =
        Array.init (Bgraph.num_edges g) (fun _ ->
            (4. *. Flowsched_util.Prng.float prng) -. 1.)
      in
      let m = Weighted_matching.max_weight g w in
      let best = Weighted_matching.weight_of w (Reference.max_weight g w) in
      Bgraph.is_matching g m
      && List.for_all (fun e -> w.(e) >= 0.) m
      && abs_float (Weighted_matching.weight_of w m -. best) <= 1e-9 *. abs_float best)

let disjoint_pair = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (1, 1) |]

let test_hungarian_rejects_infinity () =
  Alcotest.check_raises "infinity" (Invalid_argument "Weighted_matching: non-finite weight")
    (fun () -> ignore (Weighted_matching.max_weight disjoint_pair [| infinity; 1. |]));
  Alcotest.check_raises "neg_infinity" (Invalid_argument "Weighted_matching: non-finite weight")
    (fun () -> ignore (Weighted_matching.max_weight disjoint_pair [| 1.; neg_infinity |]));
  (* the abandoned problem leaves nothing behind in the reused buffers *)
  Alcotest.(check (list int)) "next problem unaffected" [ 1; 0 ]
    (Weighted_matching.max_weight disjoint_pair [| 2.; 1. |])

let test_hungarian_rejects_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Weighted_matching: non-finite weight")
    (fun () -> ignore (Weighted_matching.max_weight disjoint_pair [| nan; 1. |]))

(* One [matching.hungarian] span per solve, carrying its solver and its
   work.  Both phases of the 2 x 2 diagonal take one tree step; on a wide
   graph every numbered row opens a phase, and each phase takes at least
   the step of its own row. *)
let test_hungarian_span () =
  let module Trace = Flowsched_obs.Trace in
  let g, weight = wide_graph 7 in
  let prng = Flowsched_util.Prng.create 8 in
  let w = Array.init (Bgraph.num_edges g) (fun _ -> weight prng) in
  Trace.start ();
  ignore (Weighted_matching.max_weight disjoint_pair [| 1.; 1. |]);
  ignore (Weighted_matching.max_weight g w);
  Trace.stop ();
  match List.filter (fun sp -> sp.Trace.name = "matching.hungarian") (Trace.spans ()) with
  | [ dense; sparse ] -> (
      Alcotest.(check bool) "dense args" true
        (dense.Trace.args
        = Flowsched_util.Json.
            [ ("solver", Str "dense"); ("n", Int 2); ("pairs", Int 2); ("phases", Int 2);
              ("steps", Int 2) ]);
      match sparse.Trace.args with
      | Flowsched_util.Json.
          [ ("solver", Str "sparse"); ("n", Int n); ("pairs", Int pairs); ("phases", Int phases);
            ("steps", Int steps) ] ->
          Alcotest.(check bool) "n covers the left side" true (n >= g.Bgraph.nl);
          Alcotest.(check bool) "at most one pair per edge" true
            (pairs > 0 && pairs <= Bgraph.num_edges g);
          Alcotest.(check int) "one phase per row" n phases;
          Alcotest.(check bool) "a step per phase at least" true (steps >= phases)
      | _ -> Alcotest.fail "sparse span args")
  | spans -> Alcotest.failf "%d matching.hungarian spans, expected 2" (List.length spans)

(* --- edge coloring --- *)

let test_coloring_small () =
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  let colors = Edge_coloring.color g in
  Alcotest.(check bool) "proper" true (Edge_coloring.is_proper g colors);
  let used = Array.fold_left (fun acc c -> max acc (c + 1)) 0 colors in
  Alcotest.(check int) "2 colors for a 2-regular graph" 2 used

let test_coloring_star () =
  let g = Bgraph.create ~nl:1 ~nr:5 (Array.init 5 (fun v -> (0, v))) in
  let colors = Edge_coloring.color g in
  Alcotest.(check bool) "proper" true (Edge_coloring.is_proper g colors)

let test_coloring_parallel () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0); (0, 0); (0, 0) |] in
  let colors = Edge_coloring.color g in
  Alcotest.(check bool) "proper" true (Edge_coloring.is_proper g colors);
  let sorted = Array.copy colors in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "three distinct colors" [| 0; 1; 2 |] sorted

let prop_coloring_proper_and_tight =
  QCheck2.Test.make ~name:"edge coloring proper with <= max-degree colors" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 8) (int_range 1 8) (int_range 0 40))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let colors = Edge_coloring.color g in
      let used = Array.fold_left (fun acc c -> max acc (c + 1)) 0 colors in
      Edge_coloring.is_proper g colors
      && (ne = 0 || used <= Bgraph.max_degree g))

(* --- BvN --- *)

let check_partition g classes =
  let ne = Bgraph.num_edges g in
  let seen = Array.make ne 0 in
  Array.iter (fun cls -> List.iter (fun e -> seen.(e) <- seen.(e) + 1) cls) classes;
  Array.for_all (fun c -> c = 1) seen

let test_bvn_partitions () =
  let g = Bgraph.create ~nl:3 ~nr:3 [| (0, 0); (0, 1); (1, 1); (2, 2); (1, 0) |] in
  let classes = Bvn.decompose g in
  Alcotest.(check bool) "partition" true (check_partition g classes);
  Array.iter
    (fun cls -> Alcotest.(check bool) "class is matching" true (Bgraph.is_matching g cls))
    classes;
  Alcotest.(check int) "max-degree many classes" (Bgraph.max_degree g) (Array.length classes)

let test_bvn_empty () =
  let g = Bgraph.create ~nl:2 ~nr:2 [||] in
  Alcotest.(check int) "no classes" 0 (Array.length (Bvn.decompose g))

let prop_bvn_classes_are_matchings =
  QCheck2.Test.make ~name:"BvN classes partition into matchings" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 7) (int_range 1 7) (int_range 1 30))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let classes = Bvn.decompose g in
      check_partition g classes
      && Array.for_all (fun cls -> Bgraph.is_matching g cls) classes
      && Array.length classes = Bgraph.max_degree g)

(* --- b-matching expansion --- *)

let test_expand_round_robin () =
  let g = Bgraph.create ~nl:1 ~nr:4 [| (0, 0); (0, 1); (0, 2); (0, 3) |] in
  let exp = Bmatching.expand g ~cl:[| 2 |] ~cr:[| 1; 1; 1; 1 |] in
  (* 4 edges over 2 copies: each copy has degree 2 *)
  let dl, _ = Bgraph.degrees exp.Bmatching.graph in
  Alcotest.(check (array int)) "balanced copies" [| 2; 2 |] dl;
  (* the schedules of the matching heuristics depend on this exact rule *)
  Alcotest.(check (array int)) "k-th edge to copy k mod cap" [| 0; 1; 0; 1 |]
    exp.Bmatching.left_copy;
  Alcotest.(check int) "max copy degree" 2
    (Bmatching.max_copy_degree g ~cl:[| 2 |] ~cr:[| 1; 1; 1; 1 |]);
  (* a capacity-3 vertex over 7 edges, with another vertex's edge among
     them: its copy counter wraps around twice, and each vertex keeps its
     own counter *)
  let g = Bgraph.create ~nl:2 ~nr:1 (Array.init 8 (fun e -> ((if e = 3 then 0 else 1), 0))) in
  let exp = Bmatching.expand g ~cl:[| 1; 3 |] ~cr:[| 8 |] in
  Alcotest.(check (array int)) "k-th edge to copy k mod 3" [| 0; 1; 2; 0; 0; 1; 2; 0 |]
    exp.Bmatching.left_copy;
  Alcotest.(check (array int)) "expanded left ends" [| 1; 2; 3; 0; 1; 2; 3; 1 |]
    (Array.map (fun { Bgraph.u; _ } -> u) exp.Bmatching.graph.Bgraph.edges);
  Alcotest.(check (array int)) "right copies" [| 0; 1; 2; 3; 4; 5; 6; 7 |]
    exp.Bmatching.right_copy

let test_expand_rejects_zero_capacity () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0) |] in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Bmatching.expand: edge incident to zero-capacity vertex") (fun () ->
      ignore (Bmatching.expand g ~cl:[| 0 |] ~cr:[| 1 |]))

(* --- incremental b-matching --- *)

(* From-scratch oracle by min-cut enumeration.  The maximum number of
   schedulable unit-demand flows is the max flow of source -> u (cap cl(u))
   -> v (cap = live flows on pair (u,v)) -> sink (cap cr(v)); by max-flow /
   min-cut that equals

     min over S <= L, T <= R of
       sum_{u not in S} cl(u) + sum_{u in S, v not in T} pair(u,v)
       + sum_{v in T} cr(v)

   (S and T are the source-side ports).  Enumerating all (S, T) is
   exponential but tiny at test sizes, and — unlike re-running the same
   augmenting-path machinery — shares no code path with the implementation
   under test.  Note the round-robin [Bmatching.expand] reduction is NOT a
   valid oracle here: fixing each edge's copy assignment up front can
   undercount the optimum once capacities exceed 1. *)
let scratch_cardinality ~nl ~nr ~cl ~cr live =
  let pair = Array.make_matrix nl nr 0 in
  List.iter (fun (_, src, dst) -> pair.(src).(dst) <- pair.(src).(dst) + 1) live;
  let best = ref max_int in
  for s = 0 to (1 lsl nl) - 1 do
    for t = 0 to (1 lsl nr) - 1 do
      let cut = ref 0 in
      for u = 0 to nl - 1 do
        if s land (1 lsl u) = 0 then cut := !cut + cl.(u)
        else
          for v = 0 to nr - 1 do
            if t land (1 lsl v) = 0 then cut := !cut + pair.(u).(v)
          done
      done;
      for v = 0 to nr - 1 do
        if t land (1 lsl v) <> 0 then cut := !cut + cr.(v)
      done;
      if !cut < !best then best := !cut
    done
  done;
  !best

let test_incremental_rebind_oldest_first () =
  let t = Bmatching.incremental ~nl:1 ~nr:1 ~cap_in:[| 1 |] ~cap_out:[| 1 |] in
  Bmatching.Incremental.add t ~id:0 ~src:0 ~dst:0;
  Bmatching.Incremental.add t ~id:1 ~src:0 ~dst:0;
  Bmatching.Incremental.add t ~id:2 ~src:0 ~dst:0;
  Alcotest.(check int) "cardinality" 1 (Bmatching.Incremental.cardinality t);
  Alcotest.(check (list int)) "slot 1" [ 0 ] (Bmatching.Incremental.take_matched t);
  Alcotest.(check (list int)) "slot 2" [ 1 ] (Bmatching.Incremental.take_matched t);
  Alcotest.(check (list int)) "slot 3" [ 2 ] (Bmatching.Incremental.take_matched t);
  Alcotest.(check int) "drained" 0 (Bmatching.Incremental.pending t)

let test_incremental_augments_across_pairs () =
  (* f0 = (0,0) binds on arrival; f1 = (1,0) and f2 = (0,1) then each find a
     port occupied.  The optimum is {f1, f2}, reachable only by unbinding f0
     along an augmenting path. *)
  let t = Bmatching.incremental ~nl:2 ~nr:2 ~cap_in:[| 1; 1 |] ~cap_out:[| 1; 1 |] in
  Bmatching.Incremental.add t ~id:0 ~src:0 ~dst:0;
  Bmatching.Incremental.add t ~id:1 ~src:1 ~dst:0;
  Bmatching.Incremental.add t ~id:2 ~src:0 ~dst:1;
  Alcotest.(check int) "cardinality" 2 (Bmatching.Incremental.cardinality t);
  Alcotest.(check (list int)) "matched" [ 2; 1 ] (Bmatching.Incremental.matched t)

let prop_incremental_matches_expand_on_unit_caps =
  QCheck2.Test.make ~name:"incremental = expand+HK on unit capacities" ~count:200
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 6) (int_range 1 6) (int_range 0 20))
    (fun (seed, nl, nr, nf) ->
      let prng = Flowsched_util.Prng.create (seed + 3) in
      let cl = Array.make nl 1 and cr = Array.make nr 1 in
      let t = Bmatching.incremental ~nl ~nr ~cap_in:cl ~cap_out:cr in
      let flows =
        List.init nf (fun id ->
            let src = Flowsched_util.Prng.int prng nl in
            let dst = Flowsched_util.Prng.int prng nr in
            Bmatching.Incremental.add t ~id ~src ~dst;
            (src, dst))
      in
      let expect =
        match flows with
        | [] -> 0
        | _ ->
            let g = Bgraph.create ~nl ~nr (Array.of_list flows) in
            let exp = Bmatching.expand g ~cl ~cr in
            Matching.max_cardinality_size exp.Bmatching.graph
      in
      Bmatching.Incremental.cardinality t = expect)

let prop_incremental_matches_scratch =
  QCheck2.Test.make ~name:"incremental b-matching = from-scratch after churn" ~count:150
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 5) (int_range 1 5) (int_range 1 60))
    (fun (seed, nl, nr, steps) ->
      let prng = Flowsched_util.Prng.create (seed + 11) in
      let cl = Array.init nl (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let cr = Array.init nr (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let t = Bmatching.incremental ~nl ~nr ~cap_in:cl ~cap_out:cr in
      let live = Hashtbl.create 16 in
      let next_id = ref 0 in
      let ok = ref true in
      for _ = 1 to steps do
        let r = Flowsched_util.Prng.int prng 10 in
        if r < 5 || Hashtbl.length live = 0 then begin
          let src = Flowsched_util.Prng.int prng nl in
          let dst = Flowsched_util.Prng.int prng nr in
          let id = !next_id in
          incr next_id;
          Bmatching.Incremental.add t ~id ~src ~dst;
          Hashtbl.add live id (src, dst)
        end
        else if r < 8 then begin
          (* withdraw a uniformly random live flow *)
          let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) live []) in
          let id = List.nth ids (Flowsched_util.Prng.int prng (List.length ids)) in
          Bmatching.Incremental.remove t id;
          Hashtbl.remove live id
        end
        else begin
          (* slot step: the matched set must be live, duplicate-free, and
             capacity-feasible *)
          let ids = Bmatching.Incremental.take_matched t in
          let dl = Array.make nl 0 and dr = Array.make nr 0 in
          List.iter
            (fun id ->
              match Hashtbl.find_opt live id with
              | None -> ok := false
              | Some (s, d) ->
                  dl.(s) <- dl.(s) + 1;
                  dr.(d) <- dr.(d) + 1;
                  Hashtbl.remove live id)
            ids;
          Array.iteri (fun u d -> if d > cl.(u) then ok := false) dl;
          Array.iteri (fun v d -> if d > cr.(v) then ok := false) dr
        end;
        let snapshot = Hashtbl.fold (fun id (s, d) acc -> (id, s, d) :: acc) live [] in
        if Bmatching.Incremental.cardinality t <> scratch_cardinality ~nl ~nr ~cl ~cr snapshot
        then ok := false;
        if Bmatching.Incremental.pending t <> Hashtbl.length live then ok := false
      done;
      !ok)

(* Capacity 2 on one input: the maximum b-matching takes two of input 0's
   four flows, one per output it does not share, plus (1,1) and (2,3).
   [expand] sends input 0's edges to copies 0, 1, 0, 1, so copy 1 holds the
   edges to outputs 1 and 3, each also wanted by another input, and
   Hopcroft-Karp on the expansion finds only 3. *)
let test_incremental_capacity_two () =
  let cl = [| 2; 1; 1 |] and cr = [| 1; 1; 1; 1 |] in
  let flows = [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 1); (2, 3) ] in
  let t = Bmatching.incremental ~nl:3 ~nr:4 ~cap_in:cl ~cap_out:cr in
  List.iteri (fun id (src, dst) -> Bmatching.Incremental.add t ~id ~src ~dst) flows;
  let live = List.mapi (fun id (src, dst) -> (id, src, dst)) flows in
  Alcotest.(check int) "scratch" 4 (scratch_cardinality ~nl:3 ~nr:4 ~cl ~cr live);
  Alcotest.(check int) "incremental" 4 (Bmatching.Incremental.cardinality t);
  let exp = Bmatching.expand (Bgraph.create ~nl:3 ~nr:4 (Array.of_list flows)) ~cl ~cr in
  Alcotest.(check int) "expand + Hopcroft-Karp" 3
    (Matching.max_cardinality_size exp.Bmatching.graph)

(* A removed id may be added again, on any pair: the flow it named left
   every list when it was removed. *)
let test_incremental_id_comes_back () =
  let module I = Bmatching.Incremental in
  let t = Bmatching.incremental ~nl:2 ~nr:2 ~cap_in:[| 1; 1 |] ~cap_out:[| 1; 1 |] in
  I.add t ~id:7 ~src:0 ~dst:0;
  I.remove t 7;
  I.add t ~id:7 ~src:1 ~dst:1;
  Alcotest.(check (list int)) "bound, once" [ 7 ] (I.matched t);
  I.add t ~id:1 ~src:0 ~dst:0;
  I.add t ~id:5 ~src:0 ~dst:0;
  I.remove t 5;
  I.add t ~id:5 ~src:0 ~dst:1;
  I.remove t 1;
  (* 5 now waits on (0, 1), not on (0, 0) where it once did *)
  Alcotest.(check (list int)) "free, on its new pair" [ 7 ] (I.matched t);
  I.remove t 7;
  Alcotest.(check (list int)) "augmented" [ 5 ] (I.take_matched t);
  Alcotest.(check int) "drained" 0 (I.pending t)

(* The flat Incremental against the tombstone one it replaced
   ([Reference.Incremental]), step by step: both must make every decision
   alike, so the lists, values, [pending], [mem] and [stats] agree after
   every operation.  Ids are sparse, negative or extreme, or agree in their
   low bits (one bucket of the id table).  An id is added at most once per
   sequence: the reference recognizes a departed flow's stale entry by
   looking its id up, so it breaks on a re-added id
   ([test_incremental_id_comes_back] covers those on the flat one). *)
type inc_op =
  | Add of int * int * int  (** id, src, dst *)
  | Remove_bound of int  (** a flow the last [matched] listed *)
  | Remove_free of int  (** [matched] first, then a flow it did not list *)
  | Remove_any of int
  | Cardinality
  | Matched
  | Take_matched
  | Misuse of int  (** an unknown id, a duplicate or a port out of range *)

let show_inc_op = function
  | Add (id, s, d) -> Printf.sprintf "add %d (%d,%d)" id s d
  | Remove_bound k -> Printf.sprintf "remove-bound %d" k
  | Remove_free k -> Printf.sprintf "remove-free %d" k
  | Remove_any k -> Printf.sprintf "remove %d" k
  | Cardinality -> "cardinality"
  | Matched -> "matched"
  | Take_matched -> "take_matched"
  | Misuse k -> Printf.sprintf "misuse %d" k

let gen_inc_case =
  let open QCheck2.Gen in
  let id =
    frequency
      [
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ]);
        (3, int_range (-40) 40);
        (2, map (fun k -> k lsl 20) (int_range (-500) 500));
        (2, map (fun k -> k * 1_000_003) (int_range (-500) 500));
      ]
  in
  let* nl = int_range 1 6 in
  let* nr = int_range 1 6 in
  (* capacity 0 leaves a port idle; drawn less often, so that more
     sequences reach an augmenting path *)
  let cap = frequencyl [ (1, 0); (3, 1); (2, 2); (2, 3) ] in
  let* cl = array_size (pure nl) cap in
  let* cr = array_size (pure nr) cap in
  let op =
    frequency
      [
        (8, map3 (fun id s d -> Add (id, s, d)) id (int_bound (nl - 1)) (int_bound (nr - 1)));
        (3, map (fun k -> Remove_bound k) nat);
        (1, map (fun k -> Remove_free k) nat);
        (1, map (fun k -> Remove_any k) nat);
        (1, pure Cardinality);
        (1, pure Matched);
        (1, pure Take_matched);
        (1, map (fun k -> Misuse k) nat);
      ]
  in
  let+ ops = list_size (int_range 1 120) op in
  (nl, nr, cl, cr, ops)

let show_inc_case (nl, nr, cl, cr, ops) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "nl=%d nr=%d cap_in=[%s] cap_out=[%s]\n%s" nl nr (ints cl) (ints cr)
    (String.concat "\n" (List.map show_inc_op ops))

let prop_incremental_pinned_to_reference =
  QCheck2.Test.make ~name:"incremental = tombstone reference, step by step" ~count:500
    ~print:show_inc_case gen_inc_case (fun (nl, nr, cl, cr, ops) ->
      let module I = Bmatching.Incremental in
      let module R = Reference.Incremental in
      let t = I.create ~nl ~nr ~cap_in:cl ~cap_out:cr in
      let r = R.create ~nl ~nr ~cap_in:cl ~cap_out:cr in
      let used = ref [] and pending = ref [] and listed = ref [] in
      let pick k = function [] -> None | l -> Some (List.nth l (k mod List.length l)) in
      let remove = function
        | None -> true
        | Some id ->
            I.remove t id;
            R.remove r id;
            pending := List.filter (( <> ) id) !pending;
            true
      in
      let matched () =
        let m = I.matched t in
        listed := m;
        m = R.matched r
      in
      let misuse f g =
        let msg h = match h () with () -> None | exception Invalid_argument m -> Some m in
        let m = msg f in
        m <> None && m = msg g
      in
      let step = function
        | Add (id, src, dst) ->
            if not (List.mem id !used) then begin
              I.add t ~id ~src ~dst;
              R.add r ~id ~src ~dst;
              used := id :: !used;
              pending := id :: !pending
            end;
            true
        | Remove_bound k -> remove (pick k (List.filter (fun id -> List.mem id !pending) !listed))
        | Remove_free k ->
            matched () && remove (pick k (List.filter (fun id -> not (List.mem id !listed)) !pending))
        | Remove_any k -> remove (pick k !pending)
        | Cardinality ->
            (* an augmenting path may unbind a listed flow *)
            listed := [];
            I.cardinality t = R.cardinality r
        | Matched -> matched ()
        | Take_matched ->
            let m = I.take_matched t in
            listed := [];
            pending := List.filter (fun id -> not (List.mem id m)) !pending;
            m = R.take_matched r
        | Misuse k -> (
            match (k mod 3, pick k !pending) with
            | 0, _ ->
                let id = k + 1_000_000_007 in
                misuse (fun () -> I.remove t id) (fun () -> R.remove r id)
            | 1, Some id ->
                misuse (fun () -> I.add t ~id ~src:0 ~dst:0) (fun () -> R.add r ~id ~src:0 ~dst:0)
            | _ ->
                let id = -k - 1_000_000_007 in
                misuse (fun () -> I.add t ~id ~src:nl ~dst:0) (fun () -> R.add r ~id ~src:nl ~dst:0))
      in
      let agree () =
        let s = I.stats t and s' = R.stats r in
        I.pending t = R.pending r
        && I.pending t = List.length !pending
        && List.for_all (fun id -> I.mem t id = R.mem r id) (0 :: 1_000_000_007 :: !used)
        && (s.I.fast_binds, s.I.rebinds, s.I.searches, s.I.augments)
           = (s'.R.fast_binds, s'.R.rebinds, s'.R.searches, s'.R.augments)
      in
      List.for_all (fun op -> step op && agree ()) ops)

let prop_b_matching_decomposition =
  QCheck2.Test.make ~name:"b-matching decomposition valid and tight" ~count:300
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 1 6) (int_range 1 6) (int_range 1 25))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let prng = Flowsched_util.Prng.create (seed + 7) in
      let cl = Array.init nl (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let cr = Array.init nr (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let classes = Bvn.decompose_b_matching g ~cl ~cr in
      check_partition g classes
      && Array.for_all (fun cls -> Bgraph.is_b_matching g ~cl ~cr cls) classes
      && Array.length classes <= Bmatching.max_copy_degree g ~cl ~cr)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_hk_matches_brute_force;
        prop_hungarian_matches_brute_force;
        prop_max_weight_matches_reference;
        prop_max_weight_matches_reference_wide;
        prop_max_weight_optimal_fractional_wide;
        prop_coloring_proper_and_tight;
        prop_bvn_classes_are_matchings;
        prop_b_matching_decomposition;
        prop_incremental_matches_expand_on_unit_caps;
        prop_incremental_matches_scratch;
        prop_incremental_pinned_to_reference;
      ]
  in
  Alcotest.run "flowsched_bipartite"
    [
      ( "bgraph",
        [
          Alcotest.test_case "create validates" `Quick test_bgraph_create_validates;
          Alcotest.test_case "degrees" `Quick test_bgraph_degrees;
          Alcotest.test_case "adjacency" `Quick test_bgraph_adjacency;
          Alcotest.test_case "is_matching" `Quick test_bgraph_is_matching;
          Alcotest.test_case "is_b_matching" `Quick test_bgraph_is_b_matching;
        ] );
      ( "hopcroft-karp",
        [
          Alcotest.test_case "perfect matching" `Quick test_hk_perfect;
          Alcotest.test_case "augmenting path needed" `Quick test_hk_needs_augmenting;
          Alcotest.test_case "empty graph" `Quick test_hk_empty;
          Alcotest.test_case "parallel edges" `Quick test_hk_parallel_edges;
        ] );
      ( "hungarian",
        [
          Alcotest.test_case "simple" `Quick test_hungarian_simple;
          Alcotest.test_case "negative edge skipped" `Quick test_hungarian_prefers_unmatched_over_negative;
          Alcotest.test_case "rectangular" `Quick test_hungarian_rectangular;
          Alcotest.test_case "parallel edges" `Quick test_hungarian_parallel_edges;
          Alcotest.test_case "rejects infinite weights" `Quick test_hungarian_rejects_infinity;
          Alcotest.test_case "rejects nan weights" `Quick test_hungarian_rejects_nan;
          Alcotest.test_case "span carries solver and work" `Quick test_hungarian_span;
        ] );
      ( "edge-coloring",
        [
          Alcotest.test_case "2-regular" `Quick test_coloring_small;
          Alcotest.test_case "star" `Quick test_coloring_star;
          Alcotest.test_case "parallel edges" `Quick test_coloring_parallel;
        ] );
      ( "bvn",
        [
          Alcotest.test_case "partitions into matchings" `Quick test_bvn_partitions;
          Alcotest.test_case "empty" `Quick test_bvn_empty;
        ] );
      ( "b-matching",
        [
          Alcotest.test_case "round robin expansion" `Quick test_expand_round_robin;
          Alcotest.test_case "rejects zero capacity" `Quick test_expand_rejects_zero_capacity;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "rebinds oldest first" `Quick test_incremental_rebind_oldest_first;
          Alcotest.test_case "augments across pairs" `Quick test_incremental_augments_across_pairs;
          Alcotest.test_case "capacity 2 beats expand" `Quick test_incremental_capacity_two;
          Alcotest.test_case "a removed id comes back" `Quick test_incremental_id_comes_back;
        ] );
      ("properties", props);
    ]
