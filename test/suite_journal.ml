(* Tests for the undo-journal transaction machinery: the Journal module
   itself, each layer's begin_/commit/abort (relations + database, DAG
   store, topological order, reachability matrix), and the engine-level
   property that journal rollback is indistinguishable from an
   independently captured deep snapshot. *)

module Value = Rxv_relational.Value
module Schema = Rxv_relational.Schema
module Tuple = Rxv_relational.Tuple
module Relation = Rxv_relational.Relation
module Database = Rxv_relational.Database
module Journal = Rxv_relational.Journal
module Group_update = Rxv_relational.Group_update
module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Tree = Rxv_xml.Tree
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Registrar = Rxv_workload.Registrar
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let i = Value.int
let s = Value.str

(* --- the Journal module itself --- *)

let test_journal_basics () =
  let j = Journal.create () in
  check "inactive at rest" false (Journal.active j);
  (try
     Journal.abort j;
     Alcotest.fail "abort without frame accepted"
   with Journal.No_transaction -> ());
  (try
     Journal.commit j;
     Alcotest.fail "commit without frame accepted"
   with Journal.No_transaction -> ());
  (* records outside any frame are dropped *)
  let hits = ref 0 in
  Journal.record j (fun () -> incr hits);
  Journal.begin_ j;
  check "active in frame" true (Journal.active j);
  Journal.record j (fun () -> incr hits);
  Journal.abort j;
  check_int "only the framed record replayed" 1 !hits;
  (try
     Journal.abort j;
     Alcotest.fail "second abort accepted"
   with Journal.No_transaction -> ())

let test_journal_nesting () =
  let j = Journal.create () in
  let log = ref [] in
  let rec_ tag = Journal.record j (fun () -> log := tag :: !log) in
  (* inner abort replays only the inner frame *)
  Journal.begin_ j;
  rec_ "outer1";
  Journal.begin_ j;
  rec_ "inner1";
  rec_ "inner2";
  Journal.abort j;
  check "inner abort: newest first, inner only" true
    (!log = [ "inner1"; "inner2" ]);
  (* committing the (re-opened) inner frame folds into the parent *)
  log := [];
  Journal.begin_ j;
  rec_ "inner3";
  Journal.commit j;
  rec_ "outer2";
  Journal.abort j;
  check "outer abort covers committed inner work" true
    (!log = [ "outer1"; "inner3"; "outer2" ]);
  check "no frame left" false (Journal.active j)

let test_journal_replay_suppressed () =
  (* an undo that calls a journaled entry point must not pollute an outer
     frame during replay *)
  let j = Journal.create () in
  Journal.begin_ j;
  Journal.begin_ j;
  Journal.record j (fun () -> Journal.record j (fun () -> Alcotest.fail "re-recorded during replay"));
  Journal.abort j;
  check_int "outer frame untouched by replay" 0 (Journal.entry_count j);
  Journal.abort j

(* --- relations and the database --- *)

let course_schema () =
  Schema.relation "r"
    [ Schema.attr "k" Value.TInt; Schema.attr "v" Value.TStr ]
    ~key:[ "k" ]

let test_relation_abort () =
  let r = Relation.create (course_schema ()) in
  let j = Journal.create () in
  Relation.set_journal r j;
  Relation.insert r [| i 1; s "a" |];
  Journal.begin_ j;
  Relation.insert r [| i 2; s "b" |];
  check "delete inside frame" true (Relation.delete_key r [ i 1 ]);
  check_int "frame state" 1 (Relation.cardinal r);
  Journal.abort j;
  check_int "cardinal restored" 1 (Relation.cardinal r);
  check "original row back" true (Relation.mem r [| i 1; s "a" |]);
  check "framed row gone" false (Relation.mem_key r [ i 2 ])

let test_relation_index_survives_rollback () =
  let r = Relation.create (course_schema ()) in
  let j = Journal.create () in
  Relation.set_journal r j;
  Relation.insert r [| i 1; s "a" |];
  Relation.insert r [| i 2; s "a" |];
  let idx = Relation.index_on r [ 1 ] in
  check_int "index groups" 2 (List.length (Hashtbl.find idx [ s "a" ]));
  Journal.begin_ j;
  Relation.insert r [| i 3; s "a" |];
  ignore (Relation.delete_key r [ i 1 ]);
  Journal.abort j;
  (* the same physical table was maintained through the replay, not
     dropped and rebuilt *)
  check "same index object" true (idx == Relation.index_on r [ 1 ]);
  check_int "index contents restored" 2
    (List.length (Hashtbl.find idx [ s "a" ]))

let test_database_group_update_abort () =
  let db = Registrar.sample_db () in
  let before = Database.copy db in
  let bad =
    [
      Group_update.Insert ("course", [| s "CS901"; s "New" |]);
      (* key violation: CS650 exists with a different title *)
      Group_update.Insert ("course", [| s "CS650"; s "Clash" |]);
    ]
  in
  (try
     Group_update.apply db bad;
     Alcotest.fail "conflicting group accepted"
   with Group_update.Apply_error _ -> ());
  check "database restored" true (Database.equal before db);
  check "no dangling frame" false (Journal.active (Database.journal db))

(* --- the DAG store --- *)

let small_store () =
  let st = Store.create () in
  let a = Store.gen_id st "A" [| i 0 |] () in
  let b = Store.gen_id st "B" [| i 1 |] () in
  let c = Store.gen_id st "C" [| i 2 |] () in
  Store.set_root st a;
  Store.add_edge st a b ~provenance:None;
  Store.add_edge st a c ~provenance:(Some [| i 7 |]);
  Store.add_edge st b c ~provenance:None;
  (st, a, b, c)

let test_store_abort () =
  let st, a, b, c = small_store () in
  let before_children = Store.children st a in
  Store.begin_ st;
  (* grow: a new node and edges *)
  let d = Store.gen_id st "D" [| i 3 |] () in
  Store.add_edge st c d ~provenance:None;
  (* shrink: drop the first edge of a, then the extra provenance row *)
  ignore (Store.remove_edge st a b);
  Store.add_edge st a c ~provenance:(Some [| i 8 |]);
  Store.set_provenance st b c [ [| i 9 |] ];
  Store.set_root st b;
  Store.abort st;
  check_int "nodes restored" 3 (Store.n_nodes st);
  check_int "edges restored" 3 (Store.n_edges st);
  check "new node unregistered" false (Store.mem_node st d);
  check "next_id rewound" true (Store.next_id st = d);
  check "children order restored" true (Store.children st a = before_children);
  check "provenance restored" true
    ((Store.edge_info st a c).Store.provenance = [ [| i 7 |] ]);
  check "structural provenance restored" true
    ((Store.edge_info st b c).Store.provenance = []);
  check "root restored" true (Store.root st = a)

let test_store_abort_remove_node () =
  let st, _, b, c = small_store () in
  Store.begin_ st;
  ignore (Store.remove_edge st b c);
  (* c still has parent a; detach it fully, then remove it *)
  let a = Store.root st in
  ignore (Store.remove_edge st a c);
  Store.remove_node st c;
  check_int "node gone in frame" 2 (Store.n_nodes st);
  Store.abort st;
  check_int "node re-registered" 3 (Store.n_nodes st);
  check "identity lookup restored" true
    (Store.find_id st "C" [| i 2 |] = Some c);
  check "edge back in order" true (Store.children st b = [ c ]);
  (* the slot went back to the free list: a fresh node reuses it *)
  let slot_before = (Store.node st c).Store.slot in
  ignore slot_before;
  check "no dangling frame" false (Journal.active (Store.journal st))

(* --- the topological order --- *)

let test_topo_abort () =
  let l = Topo.of_ids [ 0; 1; 2; 3; 4 ] in
  let before = Topo.to_list l in
  Topo.begin_ l;
  Topo.remove l 2;
  Topo.swap l 3 4 ~is_desc_of_v:(fun id -> id = 4);
  Topo.insert_before l ~anchor:1 [ 10; 11 ];
  Topo.insert_before l ~anchor:4 [ 12 ];
  check "mutated inside frame" true (Topo.to_list l <> before);
  check_int "live inside frame" 7 (Topo.live_count l);
  Topo.abort l;
  check "order restored" true (Topo.to_list l = before);
  check_int "live restored" 5 (Topo.live_count l);
  check "new ids absent" true
    ((not (Topo.mem l 10)) && (not (Topo.mem l 11)) && not (Topo.mem l 12));
  check_int "ord consistent" 2 (Topo.ord l 2)

let test_topo_commit_keeps () =
  let l = Topo.of_ids [ 0; 1; 2 ] in
  Topo.begin_ l;
  Topo.remove l 1;
  Topo.commit l;
  check "committed removal sticks" false (Topo.mem l 1);
  check_int "live" 2 (Topo.live_count l);
  try
    Topo.abort l;
    Alcotest.fail "abort after commit accepted"
  with Journal.No_transaction -> ()

(* --- the reachability matrix --- *)

let test_reach_abort () =
  let st, a, b, c = small_store () in
  let l = Topo.of_store st in
  let m = Reach.compute st l in
  let m0 = Reach.copy ~store:st m in
  Reach.begin_ m;
  Reach.remove_pair m a c;
  Reach.absorb_parents m b ~parents:[ c ];
  Reach.remove_row m b;
  check "mutated inside frame" false (Reach.equal m m0 st);
  Reach.abort m;
  check "matrix restored" true (Reach.equal m m0 st);
  check "ancestor bit back" true (Reach.is_ancestor m a c)

(* --- engine-level: journal abort ≡ deep snapshot --- *)

(* deep state captured with the copy oracles (independent of the journal
   machinery under test) *)
type deep = {
  d_db : Database.t;
  d_store : Store.t;
  d_topo : Topo.t;
  d_reach : Reach.t;
}

let capture (e : Engine.t) =
  let st = Store.copy e.Engine.store in
  {
    d_db = Database.copy e.Engine.db;
    d_store = st;
    d_topo = Topo.copy e.Engine.topo;
    d_reach = Reach.copy ~store:st e.Engine.reach;
  }

let matches_deep (e : Engine.t) (d : deep) =
  if not (Database.equal e.Engine.db d.d_db) then Error "database differs"
  else if
    not
      (Tree.equal_canonical
         (Store.to_tree ~max_nodes:2_000_000 e.Engine.store)
         (Store.to_tree ~max_nodes:2_000_000 d.d_store))
  then Error "view differs"
  else if Topo.to_list e.Engine.topo <> Topo.to_list d.d_topo then
    Error "topological order differs"
  else if not (Reach.equal e.Engine.reach d.d_reach e.Engine.store) then
    Error "reachability matrix differs"
  else Ok ()

(* guaranteed rejection: the synthetic DTD has no such element type *)
let bogus_update =
  Xupdate.Insert
    { etype = "bogus"; attr = [| i 0 |]; path = Rxv_xpath.Ast.Label "c" }

let abort_equals_deep_snapshot =
  Helpers.qtest ~count:30 "group rollback ≡ deep snapshot"
    Helpers.small_dataset_gen Helpers.params_print
    (fun p ->
      let d, e = Helpers.engine_of_params p in
      let batch =
        Updates.deletions e.Engine.store Updates.W2 ~count:2 ~seed:p.Synth.seed
        @ Updates.insertions d e.Engine.store Updates.W1 ~count:1
            ~seed:(p.Synth.seed + 1) ()
        @ [ bogus_update ]
      in
      let before = capture e in
      (match Engine.apply_group ~policy:`Proceed e batch with
      | Ok _ -> QCheck2.Test.fail_reportf "bogus update accepted"
      | Error (_, Engine.Invalid _) -> ()
      | Error (i, r) ->
          (* earlier updates may legitimately be rejected — the group
             still has to roll back completely *)
          ignore (i, r));
      (match matches_deep e before with
      | Ok () -> ()
      | Error m -> QCheck2.Test.fail_reportf "after rollback: %s" m);
      match Engine.check_consistency e with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_reportf "inconsistent: %s" m)

let dry_run_equals_deep_snapshot =
  Helpers.qtest ~count:30 "dry_run leaves the deep state intact"
    Helpers.small_dataset_gen Helpers.params_print
    (fun p ->
      let d, e = Helpers.engine_of_params p in
      let before = capture e in
      let us =
        Updates.insertions d e.Engine.store Updates.W2 ~count:1
          ~seed:p.Synth.seed ()
        @ Updates.deletions e.Engine.store Updates.W1 ~count:1
            ~seed:(p.Synth.seed + 2)
      in
      List.iter (fun u -> ignore (Engine.dry_run ~policy:`Proceed e u)) us;
      match matches_deep e before with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_reportf "after dry runs: %s" m)

let tests =
  [
    Alcotest.test_case "journal basics" `Quick test_journal_basics;
    Alcotest.test_case "journal nesting" `Quick test_journal_nesting;
    Alcotest.test_case "replay suppression" `Quick
      test_journal_replay_suppressed;
    Alcotest.test_case "relation abort" `Quick test_relation_abort;
    Alcotest.test_case "index cache survives rollback" `Quick
      test_relation_index_survives_rollback;
    Alcotest.test_case "group update abort" `Quick
      test_database_group_update_abort;
    Alcotest.test_case "store abort" `Quick test_store_abort;
    Alcotest.test_case "store abort w/ node removal" `Quick
      test_store_abort_remove_node;
    Alcotest.test_case "topo abort" `Quick test_topo_abort;
    Alcotest.test_case "topo commit" `Quick test_topo_commit_keeps;
    Alcotest.test_case "reach abort" `Quick test_reach_abort;
    abort_equals_deep_snapshot;
    dry_run_equals_deep_snapshot;
  ]
