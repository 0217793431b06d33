(* Tests for the DAG substrate: bitsets, the store, the topological order
   L, Algorithm Reach, and the incremental maintenance algorithms —
   property-tested against naive recomputation. *)

module Value = Rxv_relational.Value
module Bitset = Rxv_dag.Bitset
module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Maintain = Rxv_dag.Maintain
module Engine = Rxv_core.Engine
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Rng = Rxv_sat.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- bitsets vs a reference set --- *)

let bitset_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (let* op = int_range 0 2 in
       let* bit = int_range 0 300 in
       return (op, bit)))

let bitset_vs_reference =
  Helpers.qtest ~count:200 "bitset matches reference set" bitset_ops_gen
    (fun ops -> Printf.sprintf "%d ops" (List.length ops))
    (fun ops ->
      let b = Bitset.create () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (op, bit) ->
          match op with
          | 0 ->
              Bitset.set b bit;
              Hashtbl.replace reference bit ()
          | 1 ->
              Bitset.clear b bit;
              Hashtbl.remove reference bit
          | _ -> ignore (Bitset.get b bit))
        ops;
      let expect =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) reference [])
      in
      Bitset.to_list b = expect
      && Bitset.count b = List.length expect
      && List.for_all (Bitset.get b) expect)

let test_bitset_union () =
  let a = Bitset.create () and b = Bitset.create () in
  List.iter (Bitset.set a) [ 1; 5; 64 ];
  List.iter (Bitset.set b) [ 2; 64; 200 ];
  Bitset.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 2; 5; 64; 200 ] (Bitset.to_list a);
  check "intersects" true (Bitset.intersects a b);
  let c = Bitset.create () in
  Bitset.set c 3;
  check "disjoint" false (Bitset.intersects b c);
  check "equal self" true (Bitset.equal a a);
  check "not equal" false (Bitset.equal a b)

let test_bitset_word_ops () =
  let a = Bitset.create () in
  List.iter (Bitset.set a) [ 0; 62; 63; 64; 127; 200 ];
  check_int "pop_count" 6 (Bitset.pop_count a);
  let seen = ref [] in
  Bitset.iter_bits a (fun i -> seen := i :: !seen);
  Alcotest.(check (list int))
    "iter_bits ascending"
    [ 0; 62; 63; 64; 127; 200 ]
    (List.rev !seen);
  let c = Bitset.copy a in
  Bitset.set c 5;
  check "copy is independent" false (Bitset.get a 5);
  let d = Bitset.create () in
  List.iter (Bitset.set d) [ 62; 127; 300 ];
  Bitset.diff_into ~dst:c d;
  Alcotest.(check (list int)) "diff_into" [ 0; 5; 63; 64; 200 ] (Bitset.to_list c);
  (* equality is extensional: capacities may differ *)
  let e1 = Bitset.create () and e2 = Bitset.create () in
  Bitset.set e1 3;
  Bitset.set e2 3;
  Bitset.set e2 500;
  Bitset.clear e2 500;
  check "equal across capacities" true (Bitset.equal e1 e2);
  check "equal flipped" true (Bitset.equal e2 e1);
  check "non-empty" false (Bitset.is_empty e1);
  check "fresh is empty" true (Bitset.is_empty (Bitset.create ()));
  check_int "empty pop_count" 0 (Bitset.pop_count (Bitset.create ()))

let bitset_pair_gen =
  QCheck2.Gen.(
    let* xs = list_size (int_range 0 80) (int_range 0 400) in
    let* ys = list_size (int_range 0 80) (int_range 0 400) in
    return (xs, ys))

let bitset_pair_ops =
  Helpers.qtest ~count:300 "bitset pair ops match reference sets"
    bitset_pair_gen
    (fun (xs, ys) ->
      Printf.sprintf "|xs|=%d |ys|=%d" (List.length xs) (List.length ys))
    (fun (xs, ys) ->
      let module IS = Set.Make (Int) in
      let sx = IS.of_list xs and sy = IS.of_list ys in
      let mk bits =
        let b = Bitset.create () in
        List.iter (Bitset.set b) bits;
        b
      in
      let by = mk ys in
      let u = mk xs in
      Bitset.union_into ~dst:u by;
      let d = mk xs in
      Bitset.diff_into ~dst:d by;
      Bitset.to_list u = IS.elements (IS.union sx sy)
      && Bitset.to_list d = IS.elements (IS.diff sx sy)
      && Bitset.pop_count u = IS.cardinal (IS.union sx sy)
      && Bitset.intersects (mk xs) by = not (IS.is_empty (IS.inter sx sy))
      && Bitset.equal (mk xs) (mk xs)
      && Bitset.equal (mk xs) by = IS.equal sx sy)

(* Sparse bitsets (the M-row representation) against reference sets and
   against the dense bitsets they bridge to: random set/clear sequences
   (out-of-order inserts exercise the insertion path, clears the
   zero-word entry removal), then the union/popcount/iter/equal ops and
   the dense-interop queries. *)
let sparse_bitset_ops =
  Helpers.qtest ~count:300 "sparse bitset ops match reference sets"
    bitset_pair_gen
    (fun (xs, ys) ->
      Printf.sprintf "|xs|=%d |ys|=%d" (List.length xs) (List.length ys))
    (fun (xs, ys) ->
      let module IS = Set.Make (Int) in
      let mk bits =
        let b = Bitset.Sparse.create () in
        List.iter (Bitset.Sparse.set b) bits;
        b
      in
      let mk_dense bits =
        let b = Bitset.create () in
        List.iter (Bitset.set b) bits;
        b
      in
      let sx = IS.of_list xs and sy = IS.of_list ys in
      (* set then clear the ys: only the xs-without-ys survive *)
      let c = mk (xs @ ys) in
      List.iter (Bitset.Sparse.clear c) ys;
      let u = mk xs in
      Bitset.Sparse.union_into ~dst:u (mk ys);
      let union_ref = IS.elements (IS.union sx sy) in
      (* dense interop: OR the sparse xs into a dense ys and read back *)
      let dense = mk_dense ys in
      Bitset.Sparse.union_into_dense ~dst:dense (mk xs);
      Bitset.Sparse.to_list c = IS.elements (IS.diff sx sy)
      && Bitset.Sparse.to_list u = union_ref
      && Bitset.Sparse.pop_count u = List.length union_ref
      && List.for_all (fun b -> Bitset.Sparse.get u b) union_ref
      && (not (Bitset.Sparse.get u 401))
      && Bitset.to_list dense = union_ref
      && Bitset.Sparse.inter_dense (mk xs) (mk_dense ys)
         = not (IS.is_empty (IS.inter sx sy))
      && Bitset.Sparse.equal (mk (xs @ ys)) u
      && Bitset.Sparse.equal (mk xs) (mk ys) = IS.equal sx sy
      && Bitset.Sparse.is_empty (Bitset.Sparse.create ())
      && Bitset.Sparse.equal (Bitset.Sparse.copy u) u)

(* --- random stores --- *)

(* a random DAG store: nodes 0..n-1, edges only from lower to higher
   index, node 0 the root, every node reachable *)
let random_store_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* extra = int_range 0 60 in
    let* seed = int_range 0 10000 in
    return (n, extra, seed))

let build_random_store (n, extra, seed) =
  let rng = Rng.create seed in
  let store = Store.create () in
  let ids =
    Array.init n (fun i ->
        Store.gen_id store "n" [| Value.Int i |] ())
  in
  Store.set_root store ids.(0);
  (* spanning structure: each node i>0 hangs off some j<i *)
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    Store.add_edge store ids.(j) ids.(i) ~provenance:None
  done;
  (* extra forward edges create sharing *)
  for _ = 1 to extra do
    let i = Rng.int rng n and j = Rng.int rng n in
    let a = min i j and b = max i j in
    if a <> b then Store.add_edge store ids.(a) ids.(b) ~provenance:None
  done;
  (store, ids)

let topo_valid_on_random =
  Helpers.qtest ~count:200 "Topo.of_store yields a valid order"
    random_store_gen
    (fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
    (fun params ->
      let store, _ = build_random_store params in
      let l = Topo.of_store store in
      Topo.is_valid l store)

let reach_vs_naive =
  Helpers.qtest ~count:200 "Algorithm Reach = naive transitive closure"
    random_store_gen
    (fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
    (fun params ->
      let store, _ = build_random_store params in
      let l = Topo.of_store store in
      let m = Reach.compute store l in
      Helpers.reach_matches_naive store m)

(* --- Topo.swap: inserting a violating edge then swapping restores
   validity --- *)

let swap_restores_validity =
  Helpers.qtest ~count:200 "swap(L,u,v) repairs an edge insertion"
    random_store_gen
    (fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
    (fun ((n, _, seed) as params) ->
      let store, ids = build_random_store params in
      let l = Topo.of_store store in
      let m = Reach.compute store l in
      let rng = Rng.create (seed + 1) in
      (* pick u, v not related by ancestry, v not ancestor of u *)
      let candidates = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            i <> j
            && (not (Reach.is_ancestor m ids.(j) ids.(i)))
            && not (Reach.is_ancestor m ids.(i) ids.(j))
          then candidates := (ids.(i), ids.(j)) :: !candidates
        done
      done;
      match !candidates with
      | [] -> true (* total order; nothing to test *)
      | cands ->
          let u, v = List.nth cands (Rng.int rng (List.length cands)) in
          (* orient so that u currently precedes v in L *)
          let u, v = if Topo.ord l u < Topo.ord l v then (u, v) else (v, u) in
          Store.add_edge store u v ~provenance:None;
          (* update M naively for the test *)
          let l2 = Topo.of_store store in
          let m2 = Reach.compute store l2 in
          Topo.swap l u v ~is_desc_of_v:(fun x ->
              Reach.is_ancestor_or_self m2 v x);
          Topo.is_valid l store)

(* --- incremental maintenance ≡ recomputation on synthetic updates --- *)

let maintenance_matches_recompute =
  Helpers.qtest ~count:40 "Δ(M,L) maintenance ≡ recomputation"
    Helpers.small_dataset_gen Helpers.params_print
    (fun p ->
      let d, e = Helpers.engine_of_params p in
      let run_all us =
        List.iter
          (fun u -> ignore (Engine.apply ~policy:`Proceed e u))
          us
      in
      run_all (Updates.deletions e.Engine.store Updates.W1 ~count:2 ~seed:p.Synth.seed);
      run_all (Updates.insertions d e.Engine.store Updates.W2 ~count:2 ~seed:(p.Synth.seed + 1) ());
      run_all
        (List.concat_map
           (fun (del, ins) -> [ del; ins ])
           (Updates.relinks d e.Engine.store Updates.W1 ~count:2
              ~seed:(p.Synth.seed + 2)));
      run_all (Updates.deletions e.Engine.store Updates.W3 ~count:2 ~seed:(p.Synth.seed + 3));
      match Engine.check_consistency e with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "inconsistent: %s" msg)

(* --- interleaved Δ(M,L)insert/delete directly on random stores:
   after every step the bitset-backed M must equal a from-scratch
   Algorithm Reach and L must stay valid --- *)

let interleaved_maintenance =
  Helpers.qtest ~count:100 "interleaved Δ(M,L) ops ≡ recompute (bitset M)"
    random_store_gen
    (fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
    (fun ((_, _, seed) as params) ->
      let store, _ = build_random_store params in
      let l = Topo.of_store store in
      let m = Reach.compute store l in
      let rng = Rng.create (seed + 17) in
      let fresh = ref 0 in
      let live () =
        List.sort compare
          (Store.fold_nodes (fun nd acc -> nd.Store.id :: acc) store [])
      in
      let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
      let ok = ref true in
      let check_now () =
        let l_ok = Topo.is_valid l store in
        let m' = Reach.compute store (Topo.of_store store) in
        let m_ok = Reach.equal m m' store in
        if not (l_ok && m_ok) then ok := false
      in
      for _ = 1 to 12 do
        if !ok then begin
          let ids = live () in
          let root = Store.root store in
          match Rng.int rng 3 with
          | 0 ->
              (* insert a fresh node under 1–2 targets, optionally with a
                 subtree edge into an existing node (sharing) *)
              incr fresh;
              let t1 = pick ids in
              let targets =
                let t2 = pick ids in
                if t2 <> t1 && Rng.int rng 2 = 0 then [ t1; t2 ] else [ t1 ]
              in
              let v = pick ids in
              let u =
                Store.gen_id store "f" [| Value.Int (1_000_000 + !fresh) |] ()
              in
              (* u → v is safe only if v reaches no target (acyclicity) *)
              if
                Rng.int rng 2 = 0
                && List.for_all
                     (fun t -> not (Reach.is_ancestor_or_self m v t))
                     targets
              then Store.add_edge store u v ~provenance:None;
              List.iter
                (fun t -> Store.add_edge store t u ~provenance:None)
                targets;
              ignore
                (Maintain.on_insert store l m ~targets ~root_id:u
                   ~new_nodes:[ u ]);
              check_now ()
          | 1 ->
              (* common-subtree insertion: a new edge t → u between
                 existing nodes *)
              let t = pick ids and u = pick ids in
              if
                t <> u
                && (not (Reach.is_ancestor_or_self m u t))
                && not (Store.mem_edge store t u)
              then begin
                Store.add_edge store t u ~provenance:None;
                ignore
                  (Maintain.on_insert store l m ~targets:[ t ] ~root_id:u
                     ~new_nodes:[]);
                check_now ()
              end
          | _ ->
              (* drop every incoming edge of one non-root node; the
                 cascade garbage-collects whatever becomes unreachable *)
              let cands =
                List.filter
                  (fun id -> id <> root && Store.parents store id <> [])
                  ids
              in
              if cands <> [] then begin
                let v = pick cands in
                List.iter
                  (fun p -> ignore (Store.remove_edge store p v))
                  (Store.parents store v);
                ignore (Maintain.on_delete store l m ~targets:[ v ]);
                check_now ()
              end
        end
      done;
      !ok)

(* --- Δ(M,L)insert keeps L's own order: only the pairs the new edges
   order are moved, and new nodes land right before the lowest target.
   Two valid orders may disagree on unrelated pairs; maintenance must not
   reorder those. --- *)

(* nodes 0..n-1 (ids as allocated), rooted at 0, with [edges] *)
let small_dag n edges =
  let store = Store.create () in
  for k = 0 to n - 1 do
    check_int "dense ids" k (Store.gen_id store "n" [| Value.Int k |] ())
  done;
  Store.set_root store 0;
  List.iter (fun (u, v) -> Store.add_edge store u v ~provenance:None) edges;
  store

let test_insert_moves_only_forced () =
  let edges = [ (0, 1); (0, 2); (2, 3); (2, 4) ] in
  let order = Alcotest.(check (list int)) in
  (* (a) a re-link 1 → 2 between existing nodes: L is already valid, so
     nothing moves — 4 and 3 keep their (unforced) relative order *)
  let store = small_dag 5 edges in
  let l = Topo.of_ids [ 4; 3; 2; 1; 0 ] in
  let m = Reach.compute store l in
  Store.add_edge store 1 2 ~provenance:None;
  ignore (Maintain.on_insert store l m ~targets:[ 1 ] ~root_id:2 ~new_nodes:[]);
  order "re-link keeps L" [ 4; 3; 2; 1; 0 ] (Topo.to_list l);
  check "valid" true (Topo.is_valid l store);
  (* (b) a subtree of new nodes 5 → 6 → 3, 5 → 4 under target 1: the
     common nodes 3 and 4 move before 1, and 6, 5 (subtree post-order)
     are spliced right before it *)
  let store = small_dag 5 edges in
  let l = Topo.of_ids [ 1; 4; 3; 2; 0 ] in
  let m = Reach.compute store l in
  let n5 = Store.gen_id store "n" [| Value.Int 5 |] () in
  let n6 = Store.gen_id store "n" [| Value.Int 6 |] () in
  check "dense ids" true (n5 = 5 && n6 = 6);
  List.iter
    (fun (u, v) -> Store.add_edge store u v ~provenance:None)
    [ (5, 6); (6, 3); (5, 4); (1, 5) ];
  ignore
    (Maintain.on_insert store l m ~targets:[ 1 ] ~root_id:5 ~new_nodes:[ 5; 6 ]);
  order "splice before the target" [ 3; 4; 6; 5; 1; 2; 0 ] (Topo.to_list l);
  check "valid" true (Topo.is_valid l store);
  check "M = recompute" true
    (Reach.equal m (Reach.compute store (Topo.of_store store)) store)

(* --- store invariants --- *)

let test_store_basics () =
  let store = Store.create () in
  let a = Store.gen_id store "x" [| Value.Int 1 |] () in
  let a' = Store.gen_id store "x" [| Value.Int 1 |] () in
  check_int "hash-consing" a a';
  let b = Store.gen_id store "x" [| Value.Int 2 |] () in
  let c = Store.gen_id store "y" [| Value.Int 1 |] () in
  check "types split identity" true (a <> c);
  Store.set_root store a;
  Store.add_edge store a b ~provenance:None;
  Store.add_edge store a c ~provenance:None;
  Store.add_edge store a b ~provenance:None;
  (* duplicate: no-op *)
  check_int "edges" 2 (Store.n_edges store);
  Alcotest.(check (list int)) "children ordered" [ b; c ] (Store.children store a);
  Alcotest.(check (list int)) "parents" [ a ] (Store.parents store b);
  check "remove edge" true (Store.remove_edge store a b);
  check "remove again" false (Store.remove_edge store a b);
  (* node removal recycles slots *)
  let slot_b = (Store.node store b).Store.slot in
  Store.remove_node store b;
  check "gone" false (Store.mem_node store b);
  let d = Store.gen_id store "z" [| Value.Int 9 |] () in
  check_int "slot recycled" slot_b (Store.node store d).Store.slot

let test_store_provenance_accumulates () =
  let store = Store.create () in
  let a = Store.gen_id store "x" [| Value.Int 1 |] () in
  let b = Store.gen_id store "x" [| Value.Int 2 |] () in
  Store.set_root store a;
  let row1 = [| Value.Int 1; Value.Int 2 |] in
  let row2 = [| Value.Int 1; Value.Int 3 |] in
  Store.add_edge store a b ~provenance:(Some row1);
  Store.add_edge store a b ~provenance:(Some row2);
  Store.add_edge store a b ~provenance:(Some row1);
  (* dup row dropped *)
  check_int "two derivations" 2
    (List.length (Store.edge_info store a b).Store.provenance)

let test_occurrence_counts () =
  (* diamond: root -> a, b; a -> c; b -> c. c occurs twice in the tree. *)
  let store = Store.create () in
  let r = Store.gen_id store "r" [||] () in
  let a = Store.gen_id store "a" [||] () in
  let b = Store.gen_id store "b" [||] () in
  let c = Store.gen_id store "c" [||] () in
  Store.set_root store r;
  Store.add_edge store r a ~provenance:None;
  Store.add_edge store r b ~provenance:None;
  Store.add_edge store a c ~provenance:None;
  Store.add_edge store b c ~provenance:None;
  let occ = Store.occurrence_counts store in
  check_int "c occurs twice" 2 (Hashtbl.find occ c);
  check_int "a occurs once" 1 (Hashtbl.find occ a);
  (* tree materialization matches *)
  let tree = Store.to_tree store in
  check_int "tree size" 5 (Rxv_xml.Tree.size tree)

let test_tree_budget () =
  let store = Store.create () in
  let r = Store.gen_id store "r" [||] () in
  let a = Store.gen_id store "a" [||] () in
  Store.set_root store r;
  Store.add_edge store r a ~provenance:None;
  try
    ignore (Store.to_tree ~max_nodes:1 store);
    Alcotest.fail "budget not enforced"
  with Store.Dag_error _ -> ()

let tests =
  [
    bitset_vs_reference;
    Alcotest.test_case "bitset union/intersect" `Quick test_bitset_union;
    Alcotest.test_case "bitset word ops" `Quick test_bitset_word_ops;
    bitset_pair_ops;
    sparse_bitset_ops;
    topo_valid_on_random;
    reach_vs_naive;
    swap_restores_validity;
    maintenance_matches_recompute;
    interleaved_maintenance;
    Alcotest.test_case "Δ(M,L)insert moves only what the new edges force"
      `Quick test_insert_moves_only_forced;
    Alcotest.test_case "store basics" `Quick test_store_basics;
    Alcotest.test_case "provenance accumulates" `Quick
      test_store_provenance_accumulates;
    Alcotest.test_case "occurrence counts" `Quick test_occurrence_counts;
    Alcotest.test_case "tree budget" `Quick test_tree_budget;
  ]
