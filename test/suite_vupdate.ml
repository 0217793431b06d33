(* Tests for the relational-side translation algorithms: Algorithm delete
   (Fig. 9, PTIME under key preservation), the minimal-deletion oracle
   (Theorem 3), and Algorithm insert (Section 4.3), including a gadget in
   the spirit of the Theorem 2 reduction where only one boolean
   instantiation is side-effect free. *)

module Value = Rxv_relational.Value
module Schema = Rxv_relational.Schema
module Spj = Rxv_relational.Spj
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Dtd = Rxv_xml.Dtd
module Atg = Rxv_atg.Atg
module Publish = Rxv_atg.Publish
module Store = Rxv_dag.Store
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Vdelete = Rxv_core.Vdelete
module Registrar = Rxv_workload.Registrar

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let i = Value.int
let s = Value.str
let b = Value.bool

(* --- Algorithm delete --- *)

let test_delete_prefers_unshared_source () =
  (* deleting the CS650→CS320 prereq edge: candidate sources are the
     prereq tuple (deletable) and the course tuple (referenced by the
     top-level occurrence of CS320, hence not side-effect free) *)
  let e = Registrar.engine () in
  let ev = Engine.query e (Parser.parse "course[cno=CS650]/prereq/course[cno=CS320]") in
  match
    Vdelete.translate (Registrar.atg ()) e.Engine.db e.Engine.store
      ~delta_v:ev.Rxv_core.Dag_eval.arrival_edges
  with
  | Vdelete.Translated dr ->
      check "deletes only the prereq tuple" true
        (dr = [ Group_update.Delete ("prereq", [ s "CS650"; s "CS320" ]) ])
  | Vdelete.Rejected msg -> Alcotest.failf "rejected: %s" msg

let test_delete_rejected_when_all_sources_shared () =
  (* a view where one base tuple supports two edges, only one of which is
     deleted: both sources of the victim edge remain referenced *)
  let schema =
    Schema.db
      [
        Schema.relation "r" [ Schema.attr "k" Value.TInt ] ~key:[ "k" ];
      ]
  in
  let dtd =
    Dtd.make ~root:"root"
      [
        ("root", Dtd.Seq [ "l1"; "l2" ]);
        ("l1", Dtd.Star "x");
        ("l2", Dtd.Star "x");
        ("x", Dtd.Pcdata);
      ]
  in
  let q name =
    Spj.make ~name ~from:[ ("r", "r") ] ~where:[]
      ~select:[ ("k", Spj.col "r" "k") ]
  in
  let atg =
    Atg.make ~name:"shared" ~schema ~dtd
      [
        ("root", Atg.R_seq [ ("l1", [||]); ("l2", [||]) ]);
        ("l1", Atg.star (q "q1"));
        ("l2", Atg.star (q "q2"));
        ("x", Atg.R_pcdata 0);
      ]
  in
  let db = Database.create schema in
  Database.insert db "r" [| i 7 |];
  let e = Engine.create atg db in
  (* delete the x under l1 only: its only source r(7) also supports the x
     under l2, which survives → must be rejected *)
  match Engine.apply ~policy:`Proceed e (Xupdate.Delete (Parser.parse "l1/x")) with
  | Error (Engine.Untranslatable _) -> ()
  | Ok _ -> Alcotest.fail "side-effecting deletion accepted"
  | Error r -> Alcotest.failf "wrong rejection: %a" Engine.pp_rejection r

let test_delete_group_shares_sources () =
  (* same view: deleting BOTH x's is fine — one source deletion covers
     both view tuples, and ΔR is minimal *)
  let schema =
    Schema.db
      [ Schema.relation "r" [ Schema.attr "k" Value.TInt ] ~key:[ "k" ] ]
  in
  let dtd =
    Dtd.make ~root:"root"
      [
        ("root", Dtd.Seq [ "l1"; "l2" ]);
        ("l1", Dtd.Star "x");
        ("l2", Dtd.Star "x");
        ("x", Dtd.Pcdata);
      ]
  in
  let q name =
    Spj.make ~name ~from:[ ("r", "r") ] ~where:[]
      ~select:[ ("k", Spj.col "r" "k") ]
  in
  let atg =
    Atg.make ~name:"shared" ~schema ~dtd
      [
        ("root", Atg.R_seq [ ("l1", [||]); ("l2", [||]) ]);
        ("l1", Atg.star (q "q1"));
        ("l2", Atg.star (q "q2"));
        ("x", Atg.R_pcdata 0);
      ]
  in
  let db = Database.create schema in
  Database.insert db "r" [| i 7 |];
  let e = Engine.create atg db in
  match Engine.apply ~policy:`Proceed e (Xupdate.Delete (Parser.parse "*/x")) with
  | Ok report ->
      check "single base deletion" true
        (report.Engine.delta_r = [ Group_update.Delete ("r", [ i 7 ]) ]);
      (match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
  | Error r -> Alcotest.failf "rejected: %a" Engine.pp_rejection r

(* Theorem 3 flavour: a shared source can cover several view deletions.
   Two views R1 ⋈ S and R2 ⋈ S over the same s-tuple; deleting both view
   rows greedily deletes r1 and r2 (first eligible source per row), while
   the minimum is the single shared s. *)
let test_minimal_beats_greedy () =
  let schema =
    Schema.db
      [
        Schema.relation "R1" [ Schema.attr "a" Value.TInt ] ~key:[ "a" ];
        Schema.relation "R2" [ Schema.attr "b" Value.TInt ] ~key:[ "b" ];
        Schema.relation "S" [ Schema.attr "k" Value.TInt ] ~key:[ "k" ];
      ]
  in
  let dtd =
    Dtd.make ~root:"root"
      [
        ("root", Dtd.Seq [ "l1"; "l2" ]);
        ("l1", Dtd.Star "x");
        ("l2", Dtd.Star "y");
        ("x", Dtd.Pcdata);
        ("y", Dtd.Pcdata);
      ]
  in
  let q1 =
    Spj.make ~name:"q1"
      ~from:[ ("r", "R1"); ("s", "S") ]
      ~where:[ Spj.eq (Spj.col "r" "a") (Spj.col "s" "k") ]
      ~select:[ ("a", Spj.col "r" "a") ]
  in
  let q2 =
    Spj.make ~name:"q2"
      ~from:[ ("r", "R2"); ("s", "S") ]
      ~where:[ Spj.eq (Spj.col "r" "b") (Spj.col "s" "k") ]
      ~select:[ ("b", Spj.col "r" "b") ]
  in
  let atg =
    Atg.make ~name:"cover" ~schema ~dtd
      [
        ("root", Atg.R_seq [ ("l1", [||]); ("l2", [||]) ]);
        ("l1", Atg.star q1);
        ("l2", Atg.star q2);
        ("x", Atg.R_pcdata 0);
        ("y", Atg.R_pcdata 0);
      ]
  in
  let db = Database.create schema in
  Database.insert db "R1" [| i 7 |];
  Database.insert db "R2" [| i 7 |];
  Database.insert db "S" [| i 7 |];
  let e = Engine.create atg db in
  let ev1 = Engine.query e (Parser.parse "l1/x") in
  let ev2 = Engine.query e (Parser.parse "l2/y") in
  let delta_v =
    ev1.Rxv_core.Dag_eval.arrival_edges @ ev2.Rxv_core.Dag_eval.arrival_edges
  in
  check_int "two edges to delete" 2 (List.length delta_v);
  let greedy =
    match Vdelete.translate atg e.Engine.db e.Engine.store ~delta_v with
    | Vdelete.Translated dr -> dr
    | Vdelete.Rejected m -> Alcotest.failf "greedy rejected: %s" m
  in
  let minimal =
    match Vdelete_oracle.minimal_deletions atg e.Engine.store ~delta_v with
    | Some dr -> dr
    | None -> Alcotest.fail "minimal not found"
  in
  check_int "minimal is the single shared source" 1 (List.length minimal);
  check "minimal strictly smaller than greedy" true
    (List.length minimal < List.length greedy);
  check "minimal deletes S(7)" true
    (minimal = [ Group_update.Delete ("S", [ i 7 ]) ]);
  (* the minimal ΔR is valid: applying it and republishing removes exactly
     the two view rows *)
  let db' = Database.copy db in
  Group_update.apply db' minimal;
  let store' = Publish.publish atg db' in
  check_int "republished view lost both children" 0
    (Store.gen_cardinal store' "x" + Store.gen_cardinal store' "y")

let test_minimal_deletions_oracle () =
  (* minimal_deletions must find a cover no larger than the greedy one *)
  let e = Registrar.engine () in
  let ev = Engine.query e (Parser.parse "//course[cno=CS320]//student[ssn=S02]") in
  let delta_v = ev.Rxv_core.Dag_eval.arrival_edges in
  let atg = Registrar.atg () in
  match
    ( Vdelete.translate atg e.Engine.db e.Engine.store ~delta_v,
      Vdelete_oracle.minimal_deletions atg e.Engine.store ~delta_v )
  with
  | Vdelete.Translated greedy, Some minimal ->
      check "minimal ≤ greedy" true
        (List.length minimal <= List.length greedy)
  | Vdelete.Rejected m, _ -> Alcotest.failf "greedy rejected: %s" m
  | _, None -> Alcotest.fail "minimal oracle found nothing"

(* --- Algorithm insert: boolean gadget --- *)

(* Schema: S(k, flag:bool) drives the view; W(j, k, wflag:bool) pairs a
   witness with a key and a boolean. The "bad" view pairs S with W on
   k and flag = wflag: a bad element appears iff the inserted S tuple's
   flag matches a witness. Inserting an item for a fresh k whose flag is
   unconstrained forces the SAT encoder to pick flag ≠ wflag of any
   witness for k. With witnesses for both booleans, insertion must be
   rejected; with one witness, it must pick the other value. *)
let gadget_schema =
  Schema.db
    [
      Schema.relation "S"
        [ Schema.attr "k" Value.TInt; Schema.attr "flag" Value.TBool ]
        ~key:[ "k" ];
      Schema.relation "W"
        [
          Schema.attr "j" Value.TInt;
          Schema.attr "k" Value.TInt;
          Schema.attr "wflag" Value.TBool;
        ]
        ~key:[ "j" ];
      Schema.relation "Sel"
        [ Schema.attr "k" Value.TInt ]
        ~key:[ "k" ];
    ]

let gadget_dtd =
  Dtd.make ~root:"root"
    [
      ("root", Dtd.Seq [ "items"; "alarms" ]);
      ("items", Dtd.Star "item");
      ("alarms", Dtd.Star "alarm");
      ("item", Dtd.Pcdata);
      ("alarm", Dtd.Pcdata);
    ]

(* items: Sel ⋈ S on k — inserting an item requires an S tuple with an
   undetermined flag *)
let gadget_q_items =
  Spj.make ~name:"Qitems"
    ~from:[ ("sel", "Sel"); ("s", "S") ]
    ~where:[ Spj.eq (Spj.col "sel" "k") (Spj.col "s" "k") ]
    ~select:[ ("k", Spj.col "s" "k") ]

let gadget_atg () =
  (* alarms: S ⋈ W on k and flag = wflag *)
  let q_alarms =
    Spj.make ~name:"Qalarms"
      ~from:[ ("s", "S"); ("w", "W") ]
      ~where:
        [
          Spj.eq (Spj.col "s" "k") (Spj.col "w" "k");
          Spj.eq (Spj.col "s" "flag") (Spj.col "w" "wflag");
        ]
      ~select:[ ("j", Spj.col "w" "j") ]
  in
  Atg.make ~name:"gadget" ~schema:gadget_schema ~dtd:gadget_dtd
    [
      ("root", Atg.R_seq [ ("items", [||]); ("alarms", [||]) ]);
      ("items", Atg.star gadget_q_items);
      ("alarms", Atg.star q_alarms);
      ("item", Atg.R_pcdata 0);
      ("alarm", Atg.R_pcdata 0);
    ]

let gadget_engine witnesses =
  let db = Database.create gadget_schema in
  List.iteri
    (fun j (k, wflag) ->
      Database.insert db "W" [| i (j + 1); i k; b wflag |])
    witnesses;
  (* Sel provides join partners for items *)
  List.iter (fun k -> Database.insert db "Sel" [| i k |]) [ 1; 2; 3 ];
  Engine.create (gadget_atg ()) db

let insert_item e k =
  Engine.apply ~policy:`Proceed e
    (Xupdate.Insert
       { etype = "item"; attr = [| i k |]; path = Parser.parse "items" })

let test_gadget_one_witness_picks_other_flag () =
  (* witness forces flag=false to be avoided: S(1, true) is impossible…
     wait: alarm fires when flag = wflag; witness (1, true) means the
     insertion must set flag = false *)
  let e = gadget_engine [ (1, true) ] in
  (match insert_item e 1 with
  | Ok report ->
      let flag =
        List.find_map
          (function
            | Group_update.Insert ("S", t) -> Some t.(1)
            | _ -> None)
          report.Engine.delta_r
      in
      check "flag avoided the witness" true (flag = Some (Value.Bool false));
      check_int "sat clauses emitted" 1
        (min 1 report.Engine.sat_clauses)
  | Error r -> Alcotest.failf "rejected: %a" Engine.pp_rejection r);
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_gadget_both_witnesses_rejected () =
  (* witnesses for both booleans: any flag value fires an alarm *)
  let e = gadget_engine [ (2, true); (2, false) ] in
  match insert_item e 2 with
  | Error (Engine.Untranslatable _) -> (
      match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "rollback broken: %s" m)
  | Ok _ -> Alcotest.fail "unsatisfiable insertion accepted"
  | Error r -> Alcotest.failf "wrong rejection: %a" Engine.pp_rejection r

let test_gadget_no_witness_free () =
  let e = gadget_engine [] in
  match insert_item e 3 with
  | Ok _ -> (
      match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
  | Error r -> Alcotest.failf "rejected: %a" Engine.pp_rejection r

(* --- canonical models: the translation does not depend on the seed ---

   A two-boolean variant of the gadget: S(k, f1, f2), W(j, k, w1, w2)
   and an alarm per S ⋈ W on k, f1 = w1 and f2 = w2. Inserting an item
   for k leaves (f1, f2) free apart from the witnesses for k, so the CNF
   has two or three models and WalkSAT's seed decides which one it
   finds first; the canonical model must make every seed agree. *)

let gadget2_schema =
  Schema.db
    [
      Schema.relation "S"
        [
          Schema.attr "k" Value.TInt;
          Schema.attr "f1" Value.TBool;
          Schema.attr "f2" Value.TBool;
        ]
        ~key:[ "k" ];
      Schema.relation "W"
        [
          Schema.attr "j" Value.TInt;
          Schema.attr "k" Value.TInt;
          Schema.attr "w1" Value.TBool;
          Schema.attr "w2" Value.TBool;
        ]
        ~key:[ "j" ];
      Schema.relation "Sel" [ Schema.attr "k" Value.TInt ] ~key:[ "k" ];
    ]

let gadget2_atg () =
  let q_alarms =
    Spj.make ~name:"Qalarms"
      ~from:[ ("s", "S"); ("w", "W") ]
      ~where:
        [
          Spj.eq (Spj.col "s" "k") (Spj.col "w" "k");
          Spj.eq (Spj.col "s" "f1") (Spj.col "w" "w1");
          Spj.eq (Spj.col "s" "f2") (Spj.col "w" "w2");
        ]
      ~select:[ ("j", Spj.col "w" "j") ]
  in
  Atg.make ~name:"gadget2" ~schema:gadget2_schema ~dtd:gadget_dtd
    [
      ("root", Atg.R_seq [ ("items", [||]); ("alarms", [||]) ]);
      ("items", Atg.star gadget_q_items);
      ("alarms", Atg.star q_alarms);
      ("item", Atg.R_pcdata 0);
      ("alarm", Atg.R_pcdata 0);
    ]

let test_translation_independent_of_seed () =
  List.iter
    (fun witnesses ->
      let delta_rs =
        List.init 64 (fun n ->
            let db = Database.create gadget2_schema in
            List.iteri
              (fun j (w1, w2) ->
                Database.insert db "W" [| i (j + 1); i 1; b w1; b w2 |])
              witnesses;
            Database.insert db "Sel" [| i 1 |];
            let e = Engine.create ~seed:(1 + (7919 * n)) (gadget2_atg ()) db in
            match insert_item e 1 with
            | Ok report -> report.Engine.delta_r
            | Error r -> Alcotest.failf "rejected: %a" Engine.pp_rejection r)
      in
      check_int
        (Printf.sprintf "one ΔR over 64 seeds, %d witness(es)"
           (List.length witnesses))
        1
        (List.length (List.sort_uniq compare delta_rs)))
    [ [ (false, false) ]; [ (true, true) ]; [ (false, true); (true, false) ] ]

(* --- gen_A probed on part of a two-field $A, and scanned ---

   G(g, tag) publishes one grp per row with $A = (g, tag); its mems and
   notes children inherit that $A. A mem row M(g, m) belongs to every
   grp with its g, so the side-effect scan of an inserted M probes gen_A
   on the first of its two fields only. A note row T(t) belongs to every
   grp, so the scan of an inserted T enumerates gen_A whole. *)

let pair_schema =
  Schema.db
    [
      Schema.relation "G"
        [ Schema.attr "g" Value.TInt; Schema.attr "tag" Value.TInt ]
        ~key:[ "g"; "tag" ];
      Schema.relation "M"
        [ Schema.attr "g" Value.TInt; Schema.attr "m" Value.TInt ]
        ~key:[ "g"; "m" ];
      Schema.relation "T" [ Schema.attr "t" Value.TInt ] ~key:[ "t" ];
    ]

let pair_engine () =
  let dtd =
    Dtd.make ~root:"root"
      [
        ("root", Dtd.Star "grp");
        ("grp", Dtd.Seq [ "tag"; "mems"; "notes" ]);
        ("tag", Dtd.Pcdata);
        ("mems", Dtd.Star "mem");
        ("mem", Dtd.Pcdata);
        ("notes", Dtd.Star "note");
        ("note", Dtd.Pcdata);
      ]
  in
  let both = [| Atg.From_parent 0; Atg.From_parent 1 |] in
  let atg =
    Atg.make ~name:"pairs" ~schema:pair_schema ~dtd
      [
        ( "root",
          Atg.star
            (Spj.make ~name:"Qgrp" ~from:[ ("g", "G") ] ~where:[]
               ~select:[ ("g", Spj.col "g" "g"); ("tag", Spj.col "g" "tag") ])
        );
        ( "grp",
          Atg.R_seq
            [ ("tag", [| Atg.From_parent 1 |]); ("mems", both); ("notes", both) ]
        );
        ("tag", Atg.R_pcdata 0);
        ( "mems",
          Atg.star
            (Spj.make ~name:"Qmem" ~from:[ ("m", "M") ]
               ~where:[ Spj.eq (Spj.col "m" "g") (Spj.Param 0) ]
               ~select:[ ("m", Spj.col "m" "m") ]) );
        ("mem", Atg.R_pcdata 0);
        ( "notes",
          Atg.star
            (Spj.make ~name:"Qnote" ~from:[ ("n", "T") ] ~where:[]
               ~select:[ ("t", Spj.col "n" "t") ]) );
        ("note", Atg.R_pcdata 0);
      ]
  in
  let db = Database.create pair_schema in
  List.iter
    (fun (g, tag) -> Database.insert db "G" [| i g; i tag |])
    [ (1, 10); (1, 20); (2, 30) ];
  Database.insert db "M" [| i 1; i 100 |];
  Database.insert db "T" [| i 500 |];
  Engine.create atg db

let test_two_field_gen_probe () =
  let e = pair_engine () in
  let insert etype k path =
    Engine.apply ~policy:`Proceed e
      (Xupdate.Insert { etype; attr = [| i k |]; path = Parser.parse path })
  in
  let consistent what =
    match Engine.check_consistency e with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  let rejected_for what edge = function
    | Error (Engine.Untranslatable m) ->
        check (what ^ ": certain side effect")
          true
          (m = "insertion has a certain side effect on " ^ edge);
        consistent what
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error r -> Alcotest.failf "%s: wrong rejection: %a" what Engine.pp_rejection r
  in
  let accepted what delta_r = function
    | Ok r ->
        check (what ^ ": ΔR") true (r.Engine.delta_r = delta_r);
        consistent what
    | Error r -> Alcotest.failf "%s rejected: %a" what Engine.pp_rejection r
  in
  (* g = 2 has one grp: the probe on g finds only the target *)
  accepted "mem under g = 2"
    [ Group_update.Insert ("M", [| i 2; i 200 |]) ]
    (insert "mem" 200 "grp[tag=30]/mems");
  (* g = 1 has two grps: M(1, 300) would appear under tag 20 as well *)
  rejected_for "mem under tag 10 alone" "edge_mems_mem"
    (insert "mem" 300 "grp[tag=10]/mems");
  accepted "mem under both g = 1 grps"
    [ Group_update.Insert ("M", [| i 1; i 300 |]) ]
    (insert "mem" 300 "grp[tag=10 or tag=20]/mems");
  (* a note belongs to every grp: only an insertion under all of them *)
  rejected_for "note under one grp" "edge_notes_note"
    (insert "note" 600 "grp[tag=30]/notes");
  accepted "note under every grp"
    [ Group_update.Insert ("T", [| i 600 |]) ]
    (insert "note" 600 "grp/notes")

(* --- insertion conflicting with an existing key --- *)

let test_insert_key_conflict_rejected () =
  let e = Registrar.engine () in
  (* CS320 exists with title "Database Systems"; requiring a different
     title under the same key must be rejected *)
  match
    Engine.apply ~policy:`Proceed e
      (Xupdate.Insert
         {
           etype = "course";
           attr = Registrar.course_attr "CS320" "A Different Title";
           path = Parser.parse "course[cno=CS240]/prereq";
         })
  with
  | Error (Engine.Untranslatable _) -> ()
  | Ok _ -> Alcotest.fail "key-conflicting insertion accepted"
  | Error r -> Alcotest.failf "wrong rejection: %a" Engine.pp_rejection r

(* --- multi-target insertion: template pooling across edges --- *)

let test_multi_target_insert () =
  (* insert CS110 as a prerequisite of BOTH CS240 and CS120 in one update:
     the derivations share the course template (one course row), while
     each target needs its own prereq row *)
  let e = Registrar.engine () in
  let u =
    Xupdate.Insert
      {
        etype = "course";
        attr = Registrar.course_attr "CS110" "Discrete Math";
        path = Parser.parse "//course[cno=CS240 or cno=CS120]/prereq";
      }
  in
  match Engine.apply ~policy:`Proceed e u with
  | Ok r ->
      let inserts rel =
        List.length
          (List.filter
             (function Group_update.Insert (r', _) -> r' = rel | _ -> false)
             r.Engine.delta_r)
      in
      check_int "one pooled course row" 1 (inserts "course");
      check_int "two prereq rows" 2 (inserts "prereq");
      (match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
  | Error rej -> Alcotest.failf "rejected: %a" Engine.pp_rejection rej

(* --- repeated updates keep everything consistent --- *)

let test_update_sequence_consistency () =
  let e = Registrar.engine () in
  let ops =
    [
      Xupdate.Insert
        {
          etype = "course";
          attr = Registrar.course_attr "CS500" "Compilers";
          path = Parser.parse "course[cno=CS650]/prereq";
        };
      Xupdate.Insert
        {
          etype = "student";
          attr = [| s "S04"; s "Dan" |];
          path = Parser.parse "//course[cno=CS500]/takenBy";
        };
      Xupdate.Delete (Parser.parse "//course[cno=CS320]/prereq/course[cno=CS120]");
      Xupdate.Insert
        {
          etype = "course";
          attr = Registrar.course_attr "CS120" "Programming";
          path = Parser.parse "//course[cno=CS500]/prereq";
        };
      Xupdate.Delete (Parser.parse "//student[ssn=S04]");
    ]
  in
  List.iter
    (fun u ->
      (match Engine.apply ~policy:`Proceed e u with
      | Ok _ -> ()
      | Error r ->
          Alcotest.failf "update %a rejected: %a" Xupdate.pp u
            Engine.pp_rejection r);
      match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "after %a: %s" Xupdate.pp u m)
    ops

let tests =
  [
    Alcotest.test_case "delete prefers unshared source" `Quick
      test_delete_prefers_unshared_source;
    Alcotest.test_case "delete rejected when sources shared" `Quick
      test_delete_rejected_when_all_sources_shared;
    Alcotest.test_case "group delete shares sources" `Quick
      test_delete_group_shares_sources;
    Alcotest.test_case "minimal deletions oracle" `Quick
      test_minimal_deletions_oracle;
    Alcotest.test_case "minimal beats greedy (Theorem 3)" `Quick
      test_minimal_beats_greedy;
    Alcotest.test_case "gadget: one witness forces flag" `Quick
      test_gadget_one_witness_picks_other_flag;
    Alcotest.test_case "gadget: both witnesses reject" `Quick
      test_gadget_both_witnesses_rejected;
    Alcotest.test_case "gadget: no witness free" `Quick
      test_gadget_no_witness_free;
    Alcotest.test_case "canonical model: ΔR independent of seed" `Quick
      test_translation_independent_of_seed;
    Alcotest.test_case "two-field $A: gen_A probed on one field, scanned"
      `Quick test_two_field_gen_probe;
    Alcotest.test_case "insert key conflict rejected" `Quick
      test_insert_key_conflict_rejected;
    Alcotest.test_case "multi-target insert pools templates" `Quick
      test_multi_target_insert;
    Alcotest.test_case "update sequence consistency" `Quick
      test_update_sequence_consistency;
  ]
