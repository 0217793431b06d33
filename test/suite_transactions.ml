(* Tests for engine snapshots, atomic update groups and dry runs. *)

module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Tree = Rxv_xml.Tree
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Registrar = Rxv_workload.Registrar

let check = Alcotest.(check bool)
let s = Value.str

let ins cno title path =
  Xupdate.Insert
    { etype = "course"; attr = Registrar.course_attr cno title; path = Parser.parse path }

let test_group_commits () =
  let e = Registrar.engine () in
  let us =
    [
      ins "CS210" "Systems" "course[cno=CS650]/prereq";
      ins "CS211" "Networks" "course[cno=CS650]/prereq";
      Xupdate.Delete (Parser.parse "course[cno=CS650]/prereq/course[cno=CS320]");
    ]
  in
  (match Engine.apply_group e us with
  | Ok reports -> Alcotest.(check int) "three reports" 3 (List.length reports)
  | Error (i, r) ->
      Alcotest.failf "group failed at %d: %a" i Engine.pp_rejection r);
  check "CS210 present" true (Database.mem_key e.Engine.db "course" [ s "CS210" ]);
  check "prereq dropped" false
    (Database.mem_key e.Engine.db "prereq" [ s "CS650"; s "CS320" ]);
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_group_rolls_back () =
  let e = Registrar.engine () in
  let before = Engine.to_tree e in
  let db_cardinal = Database.cardinal e.Engine.db in
  let us =
    [
      ins "CS210" "Systems" "course[cno=CS650]/prereq";
      (* invalid: students cannot sit under prereq *)
      Xupdate.Insert
        {
          etype = "student";
          attr = [| s "S10"; s "Zed" |];
          path = Parser.parse "//prereq";
        };
    ]
  in
  (match Engine.apply_group e us with
  | Error (1, Engine.Invalid _) -> ()
  | Error (i, r) ->
      Alcotest.failf "wrong failure %d: %a" i Engine.pp_rejection r
  | Ok _ -> Alcotest.fail "invalid group accepted");
  (* everything rolled back, including the first (valid) update *)
  check "tree restored" true (Tree.equal_canonical before (Engine.to_tree e));
  Alcotest.(check int) "database restored" db_cardinal
    (Database.cardinal e.Engine.db);
  check "CS210 absent" false
    (Database.mem_key e.Engine.db "course" [ s "CS210" ]);
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_dry_run () =
  let e = Registrar.engine () in
  let before = Engine.to_tree e in
  let u = ins "CS900" "Logic" "course[cno=CS240]/prereq" in
  (match Engine.dry_run e u with
  | Ok report ->
      check "dry run computes ΔR" true (report.Engine.delta_r <> [])
  | Error r -> Alcotest.failf "dry run rejected: %a" Engine.pp_rejection r);
  check "no state change" true (Tree.equal_canonical before (Engine.to_tree e));
  check "no base change" false
    (Database.mem_key e.Engine.db "course" [ s "CS900" ]);
  (* and the real apply still works afterwards *)
  match Engine.apply e u with
  | Ok _ -> (
      match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
  | Error r -> Alcotest.failf "apply rejected: %a" Engine.pp_rejection r

let test_snapshot_isolated () =
  let e = Registrar.engine () in
  let snap = Engine.Txn.begin_ e in
  (* mutate heavily *)
  (match
     Engine.apply e (Xupdate.Delete (Parser.parse "//student"))
   with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "delete rejected: %a" Engine.pp_rejection r);
  check "students gone" true
    ((Engine.query e (Parser.parse "//student")).Rxv_core.Dag_eval.selected = []);
  Engine.Txn.abort e snap;
  check "students back" true
    ((Engine.query e (Parser.parse "//student")).Rxv_core.Dag_eval.selected <> []);
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Txn.abort must leave a fully consistent engine: view == republication,
   L valid, M == a fresh Reach run — not just an equal-looking tree *)
let test_abort_consistency () =
  let e = Registrar.engine () in
  let before = Engine.to_tree e in
  let st0 = Engine.stats e in
  Alcotest.(check int) "no open frames" 0 st0.Engine.txn_depth;
  let h = Engine.Txn.begin_ e in
  Alcotest.(check int) "one open frame" 1 (Engine.stats e).Engine.txn_depth;
  (match Engine.apply e (ins "CS210" "Systems" "course[cno=CS650]/prereq") with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "apply rejected: %a" Engine.pp_rejection r);
  (match
     Engine.apply e
       (Xupdate.Delete (Parser.parse "course[cno=CS650]/prereq/course[cno=CS320]"))
   with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "delete rejected: %a" Engine.pp_rejection r);
  Engine.Txn.abort e h;
  Alcotest.(check int) "frame closed" 0 (Engine.stats e).Engine.txn_depth;
  check "tree restored after abort" true
    (Tree.equal_canonical before (Engine.to_tree e));
  (match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.failf "inconsistent after abort: %s" m);
  (* nested: abort inner, commit outer *)
  let outer = Engine.Txn.begin_ e in
  (match Engine.apply e (ins "CS310" "Compilers" "course[cno=CS650]/prereq") with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "outer apply rejected: %a" Engine.pp_rejection r);
  let inner = Engine.Txn.begin_ e in
  Alcotest.(check int) "two open frames" 2 (Engine.stats e).Engine.txn_depth;
  (match Engine.apply e (ins "CS311" "Linkers" "course[cno=CS650]/prereq") with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "inner apply rejected: %a" Engine.pp_rejection r);
  Engine.Txn.abort e inner;
  Engine.Txn.commit e outer;
  check "outer survives" true
    (Database.mem_key e.Engine.db "course" [ s "CS310" ]);
  check "inner rolled back" false
    (Database.mem_key e.Engine.db "course" [ s "CS311" ]);
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.failf "inconsistent after nested abort/commit: %s" m

(* a rejected apply_group must leave the engine consistent (the rollback
   path repairs L and M, not only the tree) and reusable *)
let test_rejected_group_consistency () =
  let e = Registrar.engine () in
  let us =
    [
      ins "CS210" "Systems" "course[cno=CS650]/prereq";
      Xupdate.Insert
        {
          etype = "student";
          attr = [| s "S10"; s "Zed" |];
          path = Parser.parse "//prereq" (* invalid placement *);
        };
    ]
  in
  (match Engine.apply_group e us with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid group accepted");
  (match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> Alcotest.failf "inconsistent after rejected group: %s" m);
  (* the engine still accepts work afterwards *)
  match Engine.apply_group e [ ins "CS211" "Networks" "course[cno=CS650]/prereq" ] with
  | Ok _ -> (
      match Engine.check_consistency e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "inconsistent after follow-up group: %s" m)
  | Error (i, r) ->
      Alcotest.failf "follow-up group failed at %d: %a" i Engine.pp_rejection r

let tests =
  [
    Alcotest.test_case "group commits" `Quick test_group_commits;
    Alcotest.test_case "group rolls back" `Quick test_group_rolls_back;
    Alcotest.test_case "dry run" `Quick test_dry_run;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolated;
    Alcotest.test_case "abort leaves engine consistent" `Quick
      test_abort_consistency;
    Alcotest.test_case "rejected group leaves engine consistent" `Quick
      test_rejected_group_consistency;
  ]
