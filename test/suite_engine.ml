(* End-to-end tests of the update engine on the registrar example
   (Examples 1-7 of the paper) and on small synthetic datasets. *)

module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Tree = Rxv_xml.Tree
module Parser = Rxv_xpath.Parser
module Store = Rxv_dag.Store
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Registrar = Rxv_workload.Registrar
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Parser.parse

let ok_or_fail = function
  | Ok r -> r
  | Error rej -> Alcotest.failf "unexpected rejection: %a" Engine.pp_rejection rej

let assert_consistent e =
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "consistency violated: %s" msg

(* --- publishing the running example --- *)

let test_publish_registrar () =
  let e = Registrar.engine () in
  let tree = Engine.to_tree e in
  check "conforms to D0" true (Tree.conforms Registrar.dtd tree);
  (* 4 CS courses at top level; MA100 excluded *)
  check_int "top-level courses" 4 (List.length tree.Tree.children);
  (* CS320 is shared: occurs under db and under CS650's prereq *)
  let st = Engine.stats e in
  check "sharing present" true (st.Engine.sharing > 0.);
  assert_consistent e

(* --- Example 1 / Section 2.1: insertion with side effects --- *)

let test_insert_cs240_side_effects () =
  let e = Registrar.engine () in
  (* CS240 as a prerequisite of the CS320 nodes below CS650 *)
  let path = parse "course[cno=CS650]//course[cno=CS320]/prereq" in
  let u =
    Xupdate.Insert
      {
        etype = "course";
        attr = Registrar.course_attr "CS240" "Data Structures";
        path;
      }
  in
  (* CS320 also occurs directly below the root: side effects must be
     detected, and `Abort must refuse *)
  (match Engine.apply ~policy:`Abort e u with
  | Error (Engine.Side_effects _) -> ()
  | Ok _ -> Alcotest.fail "side effects not detected"
  | Error r -> Alcotest.failf "wrong rejection: %a" Engine.pp_rejection r);
  (* under `Proceed the update is carried out at every CS320 occurrence *)
  let report = ok_or_fail (Engine.apply ~policy:`Proceed e u) in
  check "side effects reported" true (report.Engine.side_effects <> []);
  check "delta_r inserts prereq(CS320, CS240)" true
    (List.exists
       (function
         | Group_update.Insert ("prereq", t) ->
             t = [| Value.Str "CS320"; Value.Str "CS240" |]
         | _ -> false)
       report.Engine.delta_r);
  (* the base update propagates: CS240 is now a prereq of *every* CS320 *)
  check "prereq row in base" true
    (Database.mem_key e.Engine.db "prereq"
       [ Value.Str "CS320"; Value.Str "CS240" ]);
  assert_consistent e

(* --- Section 2.1: deletion semantics --- *)

let test_delete_prereq_edge () =
  let e = Registrar.engine () in
  let u = Xupdate.Delete (parse "course[cno=CS650]/prereq/course[cno=CS320]") in
  let report = ok_or_fail (Engine.apply ~policy:`Proceed e u) in
  (* the translation must delete the prereq tuple, NOT the course CS320 *)
  check "deletes prereq(CS650, CS320)" true
    (report.Engine.delta_r
    = [ Group_update.Delete ("prereq", [ Value.Str "CS650"; Value.Str "CS320" ]) ]);
  check "CS320 course survives" true
    (Database.mem_key e.Engine.db "course" [ Value.Str "CS320" ]);
  (* CS320 still occurs at top level *)
  let tree = Engine.to_tree e in
  check_int "top-level courses unchanged" 4 (List.length tree.Tree.children);
  assert_consistent e

let test_delete_student_occurrence () =
  (* Example 4/5: delete //course[cno=CS320]//student[ssn=S02]. S02 is also
     enrolled in CS650, so the takenBy edge under CS650 must survive. *)
  let e = Registrar.engine () in
  let u = Xupdate.Delete (parse "//course[cno=CS320]//student[ssn=S02]") in
  let report = ok_or_fail (Engine.apply ~policy:`Proceed e u) in
  check "deletes enroll(S02, CS320)" true
    (List.mem
       (Group_update.Delete ("enroll", [ Value.Str "S02"; Value.Str "CS320" ]))
       report.Engine.delta_r);
  check "S02 still enrolled in CS650" true
    (Database.mem_key e.Engine.db "enroll" [ Value.Str "S02"; Value.Str "CS650" ]);
  check "student S02 survives" true
    (Database.mem_key e.Engine.db "student" [ Value.Str "S02" ]);
  assert_consistent e

(* --- DTD validation rejections (Section 2.4) --- *)

let test_validation_rejects () =
  let e = Registrar.engine () in
  (* inserting a student under prereq is not allowed by D0 *)
  (match
     Engine.apply e
       (Xupdate.Insert
          {
            etype = "student";
            attr = [| Value.Str "S09"; Value.Str "Zoe" |];
            path = parse "//course[cno=CS650]/prereq";
          })
   with
  | Error (Engine.Invalid _) -> ()
  | _ -> Alcotest.fail "student-under-prereq not rejected");
  (* deleting a seq child (cno) is not allowed *)
  (match Engine.apply e (Xupdate.Delete (parse "//course/cno")) with
  | Error (Engine.Invalid _) -> ()
  | _ -> Alcotest.fail "seq-child deletion not rejected");
  (* deleting the root is not allowed *)
  match Engine.apply e (Xupdate.Delete (parse ".")) with
  | Error (Engine.Invalid _) -> ()
  | _ -> Alcotest.fail "root deletion not rejected"

(* --- insertion of a brand-new course (templates + SAT path) --- *)

let test_insert_new_course () =
  let e = Registrar.engine () in
  let u =
    Xupdate.Insert
      {
        etype = "course";
        attr = Registrar.course_attr "CS999" "Quantum Databases";
        path = parse "course[cno=CS240]/prereq";
      }
  in
  let report = ok_or_fail (Engine.apply ~policy:`Proceed e u) in
  check "inserts prereq(CS240, CS999)" true
    (List.exists
       (function
         | Group_update.Insert ("prereq", t) ->
             t = [| Value.Str "CS240"; Value.Str "CS999" |]
         | _ -> false)
       report.Engine.delta_r);
  (* a course tuple must be created for CS999 *)
  check "inserts course CS999" true
    (List.exists
       (function
         | Group_update.Insert ("course", t) -> t.(0) = Value.Str "CS999"
         | _ -> false)
       report.Engine.delta_r);
  assert_consistent e

(* --- inserting an existing shared subtree elsewhere --- *)

let test_insert_existing_subtree () =
  let e = Registrar.engine () in
  (* make CS120 (an existing course) also a prerequisite of CS240 *)
  let u =
    Xupdate.Insert
      {
        etype = "course";
        attr = Registrar.course_attr "CS120" "Programming";
        path = parse "course[cno=CS240]/prereq";
      }
  in
  let report = ok_or_fail (Engine.apply ~policy:`Proceed e u) in
  check "only the prereq tuple is inserted" true
    (report.Engine.delta_r
    = [
        Group_update.Insert
          ("prereq", [| Value.Str "CS240"; Value.Str "CS120" |]);
      ]);
  assert_consistent e

(* --- cyclic insertion rejected --- *)

let test_cyclic_insert_rejected () =
  let e = Registrar.engine () in
  (* CS650 requires CS320; making CS650 a prerequisite of CS320 would make
     the view infinite *)
  let u =
    Xupdate.Insert
      {
        etype = "course";
        attr = Registrar.course_attr "CS650" "Advanced Databases";
        path = parse "//course[cno=CS320]/prereq";
      }
  in
  match Engine.apply ~policy:`Proceed e u with
  | Error (Engine.Untranslatable _) -> assert_consistent e
  | Ok _ -> Alcotest.fail "cyclic insertion accepted"
  | Error r -> Alcotest.failf "wrong rejection: %a" Engine.pp_rejection r

(* --- synthetic dataset round-trips --- *)

let test_synth_roundtrip () =
  let d = Synth.generate (Synth.default_params ~seed:11 60) in
  let e = Engine.create (Synth.atg ()) d.Synth.db in
  assert_consistent e;
  let dels = Updates.deletions e.Engine.store Updates.W1 ~count:3 ~seed:5 in
  List.iter
    (fun u ->
      match Engine.apply ~policy:`Proceed e u with
      | Ok _ -> assert_consistent e
      | Error (Engine.Untranslatable _) -> () (* legal outcome *)
      | Error r -> Alcotest.failf "rejection: %a" Engine.pp_rejection r)
    dels;
  let ins =
    Updates.insertions d e.Engine.store Updates.W2 ~count:3 ~seed:6 ()
  in
  List.iter
    (fun u ->
      match Engine.apply ~policy:`Proceed e u with
      | Ok _ -> assert_consistent e
      | Error (Engine.Untranslatable _) -> ()
      | Error r -> Alcotest.failf "rejection: %a" Engine.pp_rejection r)
    ins

(* --- skeleton-cached translation ≡ cold translation --- *)

(* Apply [u] to both engines; the outcomes must agree exactly (same ΔR
   or the same rejection). The engines then stay in lock-step, so one
   workload stream generated from [ea]'s store drives both. *)
let apply_both ea eb u =
  match
    (Engine.apply ~policy:`Proceed ea u, Engine.apply ~policy:`Proceed eb u)
  with
  | Ok a, Ok b -> check "same ΔR" true (a.Engine.delta_r = b.Engine.delta_r)
  | Error ra, Error rb -> check "same rejection" true (ra = rb)
  | Ok _, Error r -> Alcotest.failf "cold rejected, cached ok: %a" Engine.pp_rejection r
  | Error r, Ok _ -> Alcotest.failf "cached rejected, cold ok: %a" Engine.pp_rejection r

let all_provenances store =
  let acc = ref [] in
  Store.iter_edges
    (fun u v info -> acc := ((u, v), List.sort compare info.Store.provenance) :: !acc)
    store;
  List.sort compare !acc

(* the delete of the c element a fresh-key insertion [u] adds: it removes
   the element's c, cid and sub nodes *)
let delete_inserted u =
  match u with
  | Xupdate.Insert { path; attr; _ } ->
      let module Ast = Rxv_xpath.Ast in
      Xupdate.Delete
        (Ast.Seq
           ( path,
             Ast.Where
               (Ast.Label "c", Ast.Eq (Ast.Label "cid", Value.to_string attr.(0)))
           ))
  | Xupdate.Delete _ -> Alcotest.fail "expected an insertion"

let test_cached_eq_cold () =
  let params = Synth.default_params ~seed:21 50 in
  let da = Synth.generate params and db_ = Synth.generate params in
  let ea = Engine.create (Synth.atg ()) da.Synth.db in
  let eb = Engine.create (Synth.atg ()) db_.Synth.db in
  (* ea keeps its cache warm across every update, eb is forced cold
     before every single one. Each round inserts 3 W2 elements, then
     inserts and deletes a fresh element and deletes and re-links an
     edge, so the next round's translations follow node removals. *)
  let removals = ref 0 in
  let both u =
    let before = Store.n_nodes ea.Engine.store in
    Rxv_core.Vinsert.clear_cache eb.Engine.sat;
    apply_both ea eb u;
    if Store.n_nodes ea.Engine.store < before then incr removals
  in
  for round = 1 to 20 do
    let cls = List.nth [ Updates.W1; Updates.W2; Updates.W3 ] (round mod 3) in
    List.iter both
      (Updates.insertions da ea.Engine.store Updates.W2 ~count:3
         ~seed:(100 + round) ());
    List.iter
      (fun u ->
        both u;
        both (delete_inserted u))
      (Updates.insertions da ea.Engine.store cls ~count:1 ~seed:(300 + round)
         ());
    List.iter
      (fun (del, ins) ->
        both del;
        both ins)
      (Updates.relinks da ea.Engine.store cls ~count:1 ~seed:(500 + round));
    check "views equal" true
      (Tree.equal_canonical (Engine.to_tree ea) (Engine.to_tree eb));
    check "edge provenances equal" true
      (all_provenances ea.Engine.store = all_provenances eb.Engine.store)
  done;
  (* every fresh element's delete removed nodes (37 deletes do) *)
  check "deletes removed nodes" true (!removals >= 20);
  (* the cached engine really did reuse skeletons *)
  let st = Engine.stats ea in
  check "skeletons reused" true (st.Engine.sat_skeleton_hits > 0);
  check "cold engine never hit" true
    ((Engine.stats eb).Engine.sat_skeleton_hits = 0);
  assert_consistent ea;
  assert_consistent eb

(* --- an insertion after a delete does work independent of |C| --- *)

(* Minor words allocated by fresh W2 insertions, each following the
   delete of the previous insertion's element (which removes its c, cid
   and sub nodes). The first insertion builds the skeleton and relation
   indexes and is not counted. Allocation counts need no quiet host, so
   unlike a timing this holds on a loaded machine. *)
let words_per_insert_after_delete n =
  let d = Synth.generate (Synth.default_params n) in
  let e = Engine.create (Synth.atg ()) d.Synth.db in
  let ins =
    Updates.insertions d e.Engine.store Updates.W2 ~count:8 ~seed:1 ()
  in
  let words = ref 0. in
  List.iteri
    (fun i u ->
      let w0 = Gc.minor_words () in
      let r = ok_or_fail (Engine.apply e u) in
      if i > 0 then words := !words +. (Gc.minor_words () -. w0);
      check "insertion changes R" true (r.Engine.delta_r <> []);
      let before = Store.n_nodes e.Engine.store in
      ignore (ok_or_fail (Engine.apply e (delete_inserted u)));
      check "delete removes the inserted nodes" true
        (Store.n_nodes e.Engine.store < before))
    ins;
  assert_consistent e;
  !words /. 7.

let test_insert_after_delete_words () =
  let w1k = words_per_insert_after_delete 1_000 in
  let w3k = words_per_insert_after_delete 3_000 in
  if w3k > 1.5 *. w1k then
    Alcotest.failf
      "minor words per insertion grow with |C|: %.0f at 1K, %.0f at 3K" w1k
      w3k

(* --- translation through a warm cache is deterministic under fixed
   seeds --- *)

let test_warm_determinism () =
  let params = Synth.default_params ~seed:31 40 in
  let d1 = Synth.generate params and d2 = Synth.generate params in
  let e1 = Engine.create (Synth.atg ()) d1.Synth.db in
  let e2 = Engine.create (Synth.atg ()) d2.Synth.db in
  for round = 1 to 5 do
    let ins =
      Updates.insertions d1 e1.Engine.store Updates.W2 ~count:4
        ~seed:(200 + round) ()
    in
    List.iter (fun u -> apply_both e1 e2 u) ins
  done;
  check "identical final views" true
    (Tree.equal_canonical (Engine.to_tree e1) (Engine.to_tree e2));
  check "identical provenances" true
    (all_provenances e1.Engine.store = all_provenances e2.Engine.store);
  let s1 = Engine.stats e1 and s2 = Engine.stats e2 in
  check_int "same skeleton hits" s1.Engine.sat_skeleton_hits
    s2.Engine.sat_skeleton_hits;
  assert_consistent e1

let tests =
  [
    Alcotest.test_case "publish registrar" `Quick test_publish_registrar;
    Alcotest.test_case "insert CS240 w/ side effects" `Quick
      test_insert_cs240_side_effects;
    Alcotest.test_case "delete prereq edge" `Quick test_delete_prereq_edge;
    Alcotest.test_case "delete student occurrence" `Quick
      test_delete_student_occurrence;
    Alcotest.test_case "DTD validation rejections" `Quick
      test_validation_rejects;
    Alcotest.test_case "insert brand-new course" `Quick test_insert_new_course;
    Alcotest.test_case "insert existing shared subtree" `Quick
      test_insert_existing_subtree;
    Alcotest.test_case "cyclic insertion rejected" `Quick
      test_cyclic_insert_rejected;
    Alcotest.test_case "synthetic round-trips" `Quick test_synth_roundtrip;
    Alcotest.test_case "skeleton-cached ≡ cold translation" `Quick
      test_cached_eq_cold;
    Alcotest.test_case "warm-start determinism" `Quick test_warm_determinism;
    Alcotest.test_case "insertion after a delete: words independent of |C|"
      `Quick test_insert_after_delete_words;
  ]
