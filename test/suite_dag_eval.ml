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
  Helpers.qtest ~count:150 ~long_factor:10 "DAG eval = tree oracle (r[[p]])"
    gen_case
    print_case
    (fun (params, path) ->
      let _, e = Helpers.engine_of_params params in
      selected_agree e path)

let dag_matches_oracle_arrivals =
  Helpers.qtest ~count:150 ~long_factor:10 "DAG eval = tree oracle (Ep(r))"
    gen_case
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

(* ---- Dag_eval ≡ the two-pass oracle after random updates ----

   After each act, every probe read live (evaluated fresh through the
   engine's reader, value filters anchored) and through a snapshot must
   equal the oracle on all six result fields; a snapshot pinned before
   the first act must keep its answers. The probes take each route a
   [//] step has: anchored candidates ([//c[cid=..]]), a pass over L
   ([//course], [//c[sub/c]]), from a frontier below the root, and the
   walk ([//*], a trailing [//]); and filters whose literal names
   no node ([cid=07] prints back as no key). *)

let reads_match_oracle (e : Engine.t) ~probes ~act acts =
  let pinned = Engine.Snapshot.capture e in
  let at_pin =
    List.map (fun p -> Helpers.norm (Helpers.oracle_eval e p)) probes
  in
  let agree what p got =
    if Helpers.norm got <> Helpers.norm (Helpers.oracle_eval e p) then
      QCheck2.Test.fail_reportf "%s ≠ oracle for %s" what (Ast.to_string p)
  in
  List.iter
    (fun s ->
      act s;
      let snap = Engine.Snapshot.capture e in
      List.iter
        (fun p ->
          agree "live" p (Engine.query e p);
          agree "snapshot" p (Engine.Snapshot.query snap p))
        probes)
    acts;
  List.for_all2
    (fun p want -> Helpers.norm (Engine.Snapshot.query pinned p) = want)
    probes at_pin

let acts_gen = QCheck2.Gen.(list_size (int_range 4 12) (int_range 0 99_999))

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
      "//course[title=Programming]/prereq/course[cno=CS999]";
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
  Helpers.qtest ~count:40 ~long_factor:10
    "registrar: live, fresh and snapshot reads ≡ oracle" acts_gen
    Fmt.(str "%a" (Dump.list int))
    (fun acts ->
      let e = Registrar.engine () in
      reads_match_oracle e ~probes:reg_probes ~act:(registrar_act e) acts)

(* the synthetic view: W1–W3 deletions, fresh insertions, re-links and
   H-tuple deletions and re-insertions through Base_update *)
let synth_probes ~n =
  let k i = string_of_int (i mod n) in
  List.map Parser.parse
    [
      Printf.sprintf "//c[cid=%s]" (k 3);
      Printf.sprintf "//c[cid=%s]/sub/c" (k 5);
      Printf.sprintf "c[cid=%s]/sub/c[cid=%s]" (k 0) (k 7);
      Printf.sprintf "//c[cid=%s][sub/c]/sub/c[cid=%s]" (k 2) (k 8);
      Printf.sprintf "//*[cid=%s]" (k 4);
      Printf.sprintf "//sub[c/cid=%s]" (k 6);
      Printf.sprintf "//c[cid=%d]" (n + 50);
      "//c[cid=07]";
      "//c[sub/c]/sub/c[sub/c]";
      "//c[not(sub/c)]";
      "c//.";
    ]

let synth_act d (e : Engine.t) gone s =
  let store = e.Engine.store in
  let cls =
    match (s / 5) mod 3 with
    | 0 -> Updates.W1
    | 1 -> Updates.W2
    | _ -> Updates.W3
  in
  let apply us = List.iter (fun u -> ignore (Engine.apply e u)) us in
  let h () =
    List.sort compare
      (Rxv_relational.Relation.to_list (Database.relation e.Engine.db "H"))
  in
  let base op = ignore (Base_update.apply e [ op ]) in
  match s mod 5 with
  | 0 -> apply (Updates.deletions store cls ~count:1 ~seed:s)
  | 1 -> apply (Updates.insertions d store cls ~count:1 ~seed:s ())
  | 2 ->
      List.iter
        (fun (del, ins) -> ignore (Engine.apply_group e [ del; ins ]))
        (Updates.relinks d store cls ~count:1 ~seed:s)
  | 3 -> (
      match h () with
      | [] -> ()
      | hs ->
          let t = List.nth hs (s mod List.length hs) in
          gone := t :: !gone;
          base (Group_update.Delete ("H", [ t.(0); t.(1) ])))
  | _ -> (
      match !gone with
      | t :: rest ->
          gone := rest;
          base (Group_update.Insert ("H", t))
      | [] -> ())

let synthetic_matches_oracle =
  Helpers.qtest ~count:30 ~long_factor:10
    "synthetic: live, fresh and snapshot reads ≡ oracle"
    QCheck2.Gen.(pair Helpers.small_dataset_gen acts_gen)
    (fun (p, acts) ->
      Fmt.str "%a %a" Helpers.pp_params p Fmt.(Dump.list int) acts)
    (fun (params, acts) ->
      let d, e = Helpers.engine_of_params params in
      let gone = ref [] in
      reads_match_oracle e
        ~probes:(synth_probes ~n:params.Synth.n)
        ~act:(synth_act d e gone) acts)

(* ---- string values after an update ---- *)

(* the XPath string value: the node's own text, then its children's, in
   document order *)
let rec string_value store id =
  Option.value ~default:"" (Store.node store id).Store.text
  ^ String.concat "" (List.map (string_value store) (Store.children store id))

(* A text comparison reads the length of the node's whole subtree text,
   so an update below a node changes what the comparison sees there, on
   every ancestor of the touched nodes. A twin engine applies the update
   first to learn the course's new string value; after the update, the
   live read and a snapshot read must select that course, as the oracle
   does. *)
let test_text_eq_sees_new_string_values () =
  let parse = Parser.parse in
  let view_insert e =
    match
      Engine.apply e
        (Xupdate.Insert
           {
             etype = "course";
             attr = Registrar.course_attr "CS210" "Systems";
             path = parse "course[cno=CS650]/prereq";
           })
    with
    | Ok _ -> ()
    | Error rej -> Alcotest.failf "insert rejected: %a" Engine.pp_rejection rej
  in
  let base_insert e =
    match
      Base_update.apply e
        [
          Group_update.Insert
            ("prereq", [| Value.str "CS240"; Value.str "CS120" |]);
        ]
    with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "base update failed: %s" m
  in
  List.iter
    (fun (name, cno, update) ->
      let twin = Registrar.engine () in
      update twin;
      let course =
        match
          (Helpers.oracle_eval twin (parse ("course[cno=" ^ cno ^ "]")))
            .Dag_eval.selected
        with
        | [ id ] -> id
        | _ -> Alcotest.failf "%s: no single course %s" name cno
      in
      let p =
        Ast.Seq
          ( Ast.Desc_or_self,
            Ast.Where
              ( Ast.Label "course",
                Ast.Eq (Ast.Self, string_value twin.Engine.store course) ) )
      in
      let e = Registrar.engine () in
      update e;
      let want = Helpers.norm (Helpers.oracle_eval e p) in
      let live = Engine.query e p in
      check (name ^ ": live ≡ oracle") true (Helpers.norm live = want);
      check (name ^ ": the course is selected") true
        (live.Dag_eval.selected <> []);
      check (name ^ ": snapshot ≡ oracle") true
        (Helpers.norm (Engine.Snapshot.query (Engine.Snapshot.capture e) p)
        = want))
    [
      ("view insert", "CS650", view_insert);
      ("base insert", "CS240", base_insert);
    ]

(* ---- work counts of cold evaluation ----

   Cells computed and words allocated repeat exactly on every host, so
   these bounds cannot flake. For 4 cold delete plans per class W1–W3
   (data seed 7), evaluated through the engine's reader, the cells
   computed and the minor words of the whole evaluation at |C| = 3K stay
   within [work_bound] of those at |C| = 1K: a plan's cost follows the
   nodes its path touches, not |V|. Measured: 16, 16 and 24 cells and
   1.00-1.05x the words. With a bottom-up pass over L the words grew
   2.3-2.6x. *)
let work_bound = 1.5

let cold_work n =
  let d = Synth.generate (Synth.default_params ~seed:7 n) in
  let e = Engine.create (Synth.atg ()) d.Synth.db in
  List.map
    (fun cls ->
      List.fold_left
        (fun (cells, words) u ->
          let path = Xupdate.path_of u in
          let plan = Plan.compile path in
          let tb = Dag_eval.create_tables plan in
          let src = Engine.live_src e in
          let w0 = Gc.minor_words () in
          let r = Dag_eval.top_down_src src plan tb in
          let w = Gc.minor_words () -. w0 in
          if r.Dag_eval.selected = [] then
            Alcotest.failf "%s selects nothing" (Ast.to_string path);
          (cells + Dag_eval.cells_computed tb, words +. w))
        (0, 0.)
        (Updates.deletions e.Engine.store cls ~count:4 ~seed:1))
    [ Updates.W1; Updates.W2; Updates.W3 ]

let test_work_counts () =
  List.iter2
    (fun (name, (c1, w1)) (c3, w3) ->
      if float_of_int c3 > work_bound *. float_of_int (max c1 1) then
        Alcotest.failf "%s: %d cells at 3K against %d at 1K (want <= %.1fx)"
          name c3 c1 work_bound;
      if w3 > work_bound *. w1 then
        Alcotest.failf "%s: %.0f words at 3K against %.0f at 1K (want <= %.1fx)"
          name w3 w1 work_bound)
    (List.combine [ "W1"; "W2"; "W3" ] (cold_work 1000))
    (cold_work 3000)

let tests =
  [
    Alcotest.test_case "side-effect split (delete vs insert)" `Quick
      test_side_effect_split;
    delete_subset_of_insert;
    dag_matches_oracle_selected;
    dag_matches_oracle_arrivals;
    side_effect_soundness;
    Alcotest.test_case "registrar paths" `Quick test_registrar_paths;
    Alcotest.test_case "text comparisons see new string values" `Quick
      test_text_eq_sees_new_string_values;
    registrar_matches_oracle;
    synthetic_matches_oracle;
    Alcotest.test_case
      "cold W1 work counts at |C| = 3K against 1K, W2 and W3 too" `Quick
      test_work_counts;
  ]
