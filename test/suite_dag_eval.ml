(* Property tests for the two-pass DAG XPath evaluator (Section 3.2):
   on random recursive views and random queries it must agree with the
   tree-oracle evaluator on both r[[p]] and Ep(r), and its side-effect
   verdict must be sound for the revised update semantics. *)

module Tree = Rxv_xml.Tree
module Ast = Rxv_xpath.Ast
module Parser = Rxv_xpath.Parser
module Tree_eval = Rxv_xpath.Tree_eval
module Store = Rxv_dag.Store
module Engine = Rxv_core.Engine
module Dag_eval = Rxv_core.Dag_eval
module Xupdate = Rxv_core.Xupdate
module Plan = Rxv_xpath.Plan
module Updates = Rxv_workload.Updates
module Base_update = Rxv_core.Base_update
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Value = Rxv_relational.Value
module Registrar = Rxv_workload.Registrar
module Synth = Rxv_workload.Synth

let check = Alcotest.(check bool)

let eval_both (e : Engine.t) (p : Ast.path) =
  let dag = Engine.query e p in
  let tree = Engine.to_tree ~max_nodes:2_000_000 e in
  (dag, tree)

let selected_agree (e : Engine.t) p =
  let dag, tree = eval_both e p in
  let dag_ids = List.sort_uniq compare dag.Dag_eval.selected in
  let oracle_ids = Tree_eval.selected_uids tree p in
  if dag_ids <> oracle_ids then
    QCheck2.Test.fail_reportf
      "selected mismatch on %s:@ dag=%a@ oracle=%a" (Ast.to_string p)
      Fmt.(Dump.list int)
      dag_ids
      Fmt.(Dump.list int)
      oracle_ids
  else true

let arrivals_agree (e : Engine.t) p =
  let dag, tree = eval_both e p in
  let dag_edges = List.sort_uniq compare dag.Dag_eval.arrival_edges in
  let oracle_edges =
    (* the oracle includes arrivals from the synthetic root (uid of the
       store root), never (-1) since every materialized node carries its
       store uid *)
    Tree_eval.arrival_uid_pairs tree p
  in
  if dag.Dag_eval.zero_move_match then true
    (* zero-move matches have no tree-side parent-edge representation on
       the root; skip the comparison *)
  else if dag_edges <> oracle_edges then
    QCheck2.Test.fail_reportf "Ep mismatch on %s:@ dag=%a@ oracle=%a"
      (Ast.to_string p)
      Fmt.(Dump.list (Dump.pair int int))
      dag_edges
      Fmt.(Dump.list (Dump.pair int int))
      oracle_edges
  else true

let gen_case =
  QCheck2.Gen.(
    let* params = Helpers.small_dataset_gen in
    let* path = Helpers.synth_path_gen ~max_key:params.Rxv_workload.Synth.n in
    return (params, path))

let print_case (params, path) =
  Fmt.str "%a %s" Helpers.pp_params params (Ast.to_string path)

let dag_matches_oracle_selected =
  Helpers.qtest ~count:150 "DAG eval = tree oracle (r[[p]])" gen_case
    print_case
    (fun (params, path) ->
      let _, e = Helpers.engine_of_params params in
      selected_agree e path)

let dag_matches_oracle_arrivals =
  Helpers.qtest ~count:150 "DAG eval = tree oracle (Ep(r))" gen_case
    print_case
    (fun (params, path) ->
      let _, e = Helpers.engine_of_params params in
      arrivals_agree e path)

(* Side-effect soundness: if the evaluator reports NO side effects for a
   deletion, then updating only the selected occurrences of the *tree*
   agrees with the DAG-semantics update (removing the arrival edges and
   re-materializing). An over-approximation may report spurious side
   effects but must never miss one. *)

let remove_selected_occurrences (tree : Tree.t) (p : Ast.path) : Tree.t =
  let victims = Tree_eval.arrival_edges tree p in
  (* identify child positions to drop, per parent occurrence *)
  let drop = Hashtbl.create 16 in
  List.iter
    (fun (parent, child) ->
      match child.Tree_eval.occ with
      | idx :: _ -> Hashtbl.replace drop (parent.Tree_eval.occ, idx) ()
      | [] -> ())
    victims;
  (* occurrences index into the ORIGINAL child list, so recurse with the
     original index even after dropping siblings *)
  let rec rebuild occ (t : Tree.t) =
    let children =
      List.concat
        (List.mapi
           (fun i c ->
             if Hashtbl.mem drop (occ, i) then []
             else [ rebuild (i :: occ) c ])
           t.Tree.children)
    in
    { t with Tree.children }
  in
  rebuild [] tree

let side_effect_soundness =
  Helpers.qtest ~count:100 "no-side-effect verdicts are sound" gen_case
    print_case
    (fun (params, path) ->
      let _, e = Helpers.engine_of_params params in
      let dag = Engine.query e path in
      if
        dag.Dag_eval.side_effects_delete <> []
        || dag.Dag_eval.selected = []
        || dag.Dag_eval.zero_move_match
      then true (* only the clean verdict is being checked *)
      else begin
        let tree = Engine.to_tree ~max_nodes:2_000_000 e in
        let local = remove_selected_occurrences tree path in
        (* DAG semantics: drop the arrival edges in the store *)
        let removed = dag.Dag_eval.arrival_edges in
        List.iter
          (fun (u, v) -> ignore (Store.remove_edge e.Engine.store u v))
          removed;
        let global = Engine.to_tree ~max_nodes:2_000_000 e in
        (* restore *)
        List.iter
          (fun (u, v) -> Store.add_edge e.Engine.store u v ~provenance:None)
          removed;
        if Tree.equal_canonical local global then true
        else
          QCheck2.Test.fail_reportf
            "silent side effect on %s" (Ast.to_string path)
      end)

(* handcrafted checks on the registrar view *)
let test_registrar_paths () =
  let e = Rxv_workload.Registrar.engine () in
  let sel p =
    let r = Engine.query e (Parser.parse p) in
    List.length r.Dag_eval.selected
  in
  Alcotest.(check int) "4 top-level courses (shared nodes counted once)" 4
    (sel "course");
  Alcotest.(check int) "all courses via //" 4 (sel "//course");
  Alcotest.(check int) "CS320 selected once despite two occurrences" 1
    (sel "//course[cno=CS320]");
  Alcotest.(check int) "students of CS320" 2 (sel "//course[cno=CS320]/takenBy/student");
  Alcotest.(check int) "courses without prerequisites" 2
    (sel "//course[not(prereq/course)]");
  Alcotest.(check int) "deep student via //" 1 (sel "course[cno=CS650]//student[ssn=S03]");
  (* side effects: CS320 under CS650 vs top-level *)
  let r = Engine.query e (Parser.parse "course[cno=CS650]/prereq/course[cno=CS320]") in
  Alcotest.(check bool) "side effects detected" true
    (r.Dag_eval.side_effects <> []);
  (* no side effects when selecting all occurrences *)
  let r2 = Engine.query e (Parser.parse "//student") in
  Alcotest.(check bool) "no side effects for //student" true
    (r2.Dag_eval.side_effects = [])

(* per-operation side-effect semantics on the registrar view (§2.1) *)
let test_side_effect_split () =
  let e = Rxv_workload.Registrar.engine () in
  let q p = Engine.query e (Parser.parse p) in
  (* Deleting CS320 from CS650's prereq changes prereq_650's children;
     CS650 occurs only at top level -> NO deletion side effects. But
     *inserting* under the selected CS320 would also change its top-level
     occurrence -> insertion side effects. *)
  let r = q "course[cno=CS650]/prereq/course[cno=CS320]" in
  check "delete clean" true (r.Dag_eval.side_effects_delete = []);
  check "insert flagged" true (r.Dag_eval.side_effects <> []);
  (* //course[cno=CS320]//student[ssn=S02]: both CS320 occurrences are
     reached by //course[cno=CS320], so the takenBy parent's occurrences
     all arrive: deletion is clean (Example 5's semantics) *)
  let r2 = q "//course[cno=CS320]//student[ssn=S02]" in
  check "example-5 delete clean" true (r2.Dag_eval.side_effects_delete = []);
  (* the selected student S02 is also taken by CS650 directly: inserting
     under the student node would leak there *)
  check "example-5 insert flagged" true (r2.Dag_eval.side_effects <> []);
  (* course[cno=CS650]//course[cno=CS320]/prereq: only the CS650-side
     occurrence is selected; CS320 also sits at top level, so BOTH
     operations have side effects (Example 1) *)
  let r3 = q "course[cno=CS650]//course[cno=CS320]/prereq" in
  check "example-1 insert flagged" true (r3.Dag_eval.side_effects <> []);
  check "delete subset of insert" true
    (List.for_all
       (fun x -> List.mem x r3.Dag_eval.side_effects)
       r3.Dag_eval.side_effects_delete)

(* the subset relation holds universally *)
let delete_subset_of_insert =
  Helpers.qtest ~count:150 "side_effects_delete ⊆ side_effects" gen_case
    print_case
    (fun (params, path) ->
      let _, e = Helpers.engine_of_params params in
      let r = Engine.query e path in
      List.for_all
        (fun x -> List.mem x r.Dag_eval.side_effects)
        r.Dag_eval.side_effects_delete)

(* ---- Dag_eval ≡ the two-pass oracle on the registrar view ----

   Random base and view updates over the sample instance's keys; after
   each, every probe read live through the cache, fresh, and through a
   snapshot must equal the oracle on all six result fields. The probes
   take each route a [//] step has: a label row ([//course]), a filter's
   row 0 ([//course[cno=..]]), from a frontier below the root, and the
   walk ([//*], a trailing [//]). *)

let reg_courses = [| "CS120"; "CS240"; "CS320"; "CS650"; "MA100" |]
let reg_titles =
  [|
    "Programming"; "Data Structures"; "Database Systems";
    "Advanced Databases"; "Calculus";
  |]
let reg_students = [| "S01"; "S02"; "S03" |]

let reg_probes =
  List.map Parser.parse
    [
      "//course";
      "//course[cno=CS320]";
      "//course[cno=CS320]/takenBy/student";
      "//course[not(prereq/course)]";
      "//course[cno=CS120 or cno=CS650]/prereq";
      "course[cno=CS650]//student[ssn=S03]";
      "//prereq/course//cno";
      "//student[ssn=S02 and name=Bob]";
      "//*[cno=CS240]";
      "course//.";
      "//course[prereq//course/cno=CS120]/title";
    ]

let registrar_act (e : Engine.t) s =
  let s1 = s / 4 in
  let course i = reg_courses.(i mod Array.length reg_courses) in
  let c1 = course s1 and c2 = course (s1 / 5) in
  let st = reg_students.((s1 / 25) mod Array.length reg_students) in
  let toggle rel key row =
    ignore
      (Base_update.apply e
         [
           (if Database.mem_key e.Engine.db rel key then
              Group_update.Delete (rel, key)
            else Group_update.Insert (rel, row));
         ])
  in
  let v = Value.str in
  match s mod 4 with
  | 0 -> toggle "prereq" [ v c1; v c2 ] [| v c1; v c2 |]
  | 1 -> toggle "enroll" [ v st; v c1 ] [| v st; v c1 |]
  | 2 ->
      let path =
        if s1 mod 2 = 0 then
          Printf.sprintf "//course[cno=%s]/prereq/course[cno=%s]" c1 c2
        else Printf.sprintf "//course[cno=%s]/takenBy/student[ssn=%s]" c1 st
      in
      ignore
        (Engine.apply ~policy:`Proceed e (Xupdate.Delete (Parser.parse path)))
  | _ ->
      let i = (s1 / 5) mod Array.length reg_courses in
      ignore
        (Engine.apply ~policy:`Proceed e
           (Xupdate.Insert
              {
                etype = "course";
                attr = Registrar.course_attr reg_courses.(i) reg_titles.(i);
                path =
                  Parser.parse (Printf.sprintf "//course[cno=%s]/prereq" c1);
              }))

let registrar_matches_oracle =
  Helpers.qtest ~count:40 "registrar: live, fresh and snapshot reads ≡ oracle"
    QCheck2.Gen.(list_size (int_range 4 12) (int_range 0 99_999))
    Fmt.(str "%a" (Dump.list int))
    (fun acts ->
      let e = Registrar.engine () in
      let pinned = Engine.Snapshot.capture e in
      let at_pin =
        List.map (fun p -> Helpers.norm (Helpers.oracle_eval e p)) reg_probes
      in
      let agree what p got =
        if Helpers.norm got <> Helpers.norm (Helpers.oracle_eval e p) then
          QCheck2.Test.fail_reportf "%s ≠ oracle for %s" what
            (Ast.to_string p)
      in
      List.iter
        (fun s ->
          registrar_act e s;
          let snap = Engine.Snapshot.capture e in
          List.iter
            (fun p ->
              agree "cached" p (Engine.query e p);
              agree "fresh" p
                (Dag_eval.eval e.Engine.store e.Engine.topo e.Engine.reach p);
              agree "snapshot" p (Engine.Snapshot.query snap p))
            reg_probes)
        acts;
      List.for_all2
        (fun p want -> Helpers.norm (Engine.Snapshot.query pinned p) = want)
        reg_probes at_pin)

(* ---- work counts of cold evaluation ----

   Allocation and table sizes repeat exactly on every host, so these
   bounds cannot flake. At |C| = 3K (data seed 7), for 4 W1 delete
   plans (//c[cid=..]/sub/c[cid=..]): the filled tables stay within
   2,000 words (22.3K when every row was filled at every node and every
   node's text length memoized), and the top-down pass allocates at
   most twice the median of 4 W2 plans (46x when // walked the DAG). *)
let test_work_counts () =
  let d = Synth.generate (Synth.default_params ~seed:7 3000) in
  let e = Engine.create (Synth.atg ()) d.Synth.db in
  let src = Dag_eval.live_src e.Engine.store e.Engine.topo e.Engine.reach in
  let cold cls =
    List.map
      (fun u ->
        let plan = Plan.compile (Xupdate.path_of u) in
        let tb = Dag_eval.create_tables plan in
        Dag_eval.bottom_up_src src plan tb;
        let w0 = Gc.minor_words () in
        let r = Dag_eval.top_down_src src plan tb in
        let words = Gc.minor_words () -. w0 in
        if r.Dag_eval.selected = [] then
          Alcotest.failf "%s selects nothing"
            (Ast.to_string (Xupdate.path_of u));
        (Obj.reachable_words (Obj.repr tb), words))
      (Updates.deletions e.Engine.store cls ~count:4 ~seed:1)
  in
  let w2 = List.sort compare (List.map snd (cold Updates.W2)) in
  let w2_median = (List.nth w2 1 +. List.nth w2 2) /. 2. in
  List.iter
    (fun (table_words, words) ->
      if table_words > 2_000 then
        Alcotest.failf "W1 tables take %d words (want <= 2000)" table_words;
      if words > 2. *. w2_median then
        Alcotest.failf
          "W1 top-down allocates %.0f words (want <= 2x the W2 median %.0f)"
          words w2_median)
    (cold Updates.W1)

let tests =
  [
    Alcotest.test_case "side-effect split (delete vs insert)" `Quick
      test_side_effect_split;
    delete_subset_of_insert;
    dag_matches_oracle_selected;
    dag_matches_oracle_arrivals;
    side_effect_soundness;
    Alcotest.test_case "registrar paths" `Quick test_registrar_paths;
    registrar_matches_oracle;
    Alcotest.test_case "cold W1 work counts at |C| = 3K" `Quick
      test_work_counts;
  ]
