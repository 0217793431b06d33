(* Tests for incremental view maintenance under direct relational
   updates (Base_update): handcrafted registrar cases and a property test
   against republication on random synthetic datasets. *)

module Value = Rxv_relational.Value
module Group_update = Rxv_relational.Group_update
module Engine = Rxv_core.Engine
module Base_update = Rxv_core.Base_update
module Synth = Rxv_workload.Synth
module Registrar = Rxv_workload.Registrar
module Rng = Rxv_sat.Rng

let check = Alcotest.(check bool)
let s = Value.str
let i = Value.int

let assert_consistent e =
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "inconsistent after base update: %s" msg

let apply_ok e dr =
  match Base_update.apply e dr with
  | Ok r -> r
  | Error m -> Alcotest.failf "base update failed: %s" m

let test_insert_course_row () =
  let e = Registrar.engine () in
  (* a new CS course appears at top level *)
  let r =
    apply_ok e
      [ Group_update.Insert ("course", [| s "CS777"; s "Graphs"; s "CS" |]) ]
  in
  check "root affected" true (r.Base_update.affected_parents >= 1);
  check "edge added" true (r.Base_update.edges_added >= 1);
  assert_consistent e;
  (* a non-CS course changes nothing *)
  let r2 =
    apply_ok e
      [ Group_update.Insert ("course", [| s "MA200"; s "Algebra"; s "MA" |]) ]
  in
  check "no edges for non-CS" true (r2.Base_update.edges_added = 0);
  assert_consistent e

let test_insert_prereq_row () =
  let e = Registrar.engine () in
  (* CS120 becomes a prerequisite of CS240: one new edge under an existing
     shared subtree *)
  let r =
    apply_ok e [ Group_update.Insert ("prereq", [| s "CS240"; s "CS120" |]) ]
  in
  check "edge added" true (r.Base_update.edges_added = 1);
  assert_consistent e

let test_delete_enroll_row () =
  let e = Registrar.engine () in
  let r =
    apply_ok e [ Group_update.Delete ("enroll", [ s "S02"; s "CS320" ]) ]
  in
  check "edge removed" true (r.Base_update.edges_removed = 1);
  assert_consistent e

let test_delete_course_row () =
  let e = Registrar.engine () in
  (* removing CS120 removes it everywhere (top level and under CS320) *)
  let r =
    apply_ok e
      [
        Group_update.Delete ("course", [ s "CS120" ]);
        Group_update.Delete ("prereq", [ s "CS320"; s "CS120" ]);
      ]
  in
  check "edges removed" true (r.Base_update.edges_removed >= 2);
  assert_consistent e

let test_mixed_group () =
  let e = Registrar.engine () in
  let r =
    apply_ok e
      [
        Group_update.Insert ("student", [| s "S07"; s "Greg" |]);
        Group_update.Insert ("enroll", [| s "S07"; s "CS650" |]);
        Group_update.Delete ("prereq", [ s "CS650"; s "CS320" ]);
      ]
  in
  check "both directions" true
    (r.Base_update.edges_added >= 1 && r.Base_update.edges_removed >= 1);
  assert_consistent e

let test_cyclic_base_update_rejected () =
  let e = Registrar.engine () in
  match
    Base_update.apply e
      [ Group_update.Insert ("prereq", [| s "CS120"; s "CS650" |]) ]
  with
  | Error _ ->
      (* database restored, view untouched *)
      check "prereq row rolled back" false
        (Rxv_relational.Database.mem_key e.Engine.db "prereq"
           [ s "CS120"; s "CS650" ]);
      assert_consistent e
  | Ok _ -> Alcotest.fail "cyclic base update accepted"

(* Data may hold a reference cycle outside the view: base updates only
   reject cycles the view would contain. Linking such a cycle into the
   view, by a base update or a view insertion, must be rejected too: the
   expanded subtree would be infinite even though it never reaches the
   node it hangs from. *)
let test_latent_cycle_rejected () =
  let e = Registrar.engine () in
  let course cno = [| s cno; s ("Math " ^ cno); s "MA" |] in
  ignore
    (apply_ok e
       [
         Group_update.Insert ("course", course "MA200");
         Group_update.Insert ("course", course "MA201");
         Group_update.Insert ("prereq", [| s "MA200"; s "MA201" |]);
         Group_update.Insert ("prereq", [| s "MA201"; s "MA200" |]);
       ]);
  assert_consistent e;
  (match
     Base_update.apply e
       [ Group_update.Insert ("prereq", [| s "CS650"; s "MA200" |]) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "base update linking a cycle accepted");
  check "prereq row rolled back" false
    (Rxv_relational.Database.mem_key e.Engine.db "prereq"
       [ s "CS650"; s "MA200" ]);
  assert_consistent e;
  (match
     Engine.apply e
       (Rxv_core.Xupdate.Insert
          {
            etype = "course";
            attr = Registrar.course_attr "MA200" "Math MA200";
            path = Rxv_xpath.Parser.parse "course[cno=CS650]/prereq";
          })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "view insertion linking a cycle accepted");
  assert_consistent e

(* Reversing a prerequisite in one batch: CS650 → CS320 becomes
   CS320 → CS650. The parent that gains a child is reconciled before the
   one that loses it, so linking first would see the old edge close a
   cycle the new view does not have. Every parent unlinks before any
   links, so the batch is accepted. *)
let test_reversed_edge_accepted () =
  let e = Registrar.engine () in
  ignore
    (apply_ok e
       [
         Group_update.Insert ("prereq", [| s "CS320"; s "CS650" |]);
         Group_update.Delete ("prereq", [ s "CS650"; s "CS320" ]);
         Group_update.Insert ("prereq", [| s "CS650"; s "CS240" |]);
       ]);
  assert_consistent e

(* The same reversal with a real cycle (CS320 → CS120 → CS320) must roll
   back to the state before the batch. Rolling back re-reconciles the
   parents in the same order, so re-linking CS320 under CS650 before
   unlinking CS650 from CS320 closed a cycle there and escaped as an
   exception, leaving the view inconsistent. *)
let test_cycle_rollback_after_reversal () =
  let e = Registrar.engine () in
  let before = Rxv_relational.Database.copy e.Engine.db in
  (match
     Base_update.apply e
       [
         Group_update.Insert ("prereq", [| s "CS320"; s "CS650" |]);
         Group_update.Delete ("prereq", [ s "CS650"; s "CS320" ]);
         Group_update.Insert ("prereq", [| s "CS120"; s "CS320" |]);
       ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cyclic base update accepted");
  check "database restored" true
    (Rxv_relational.Database.equal before e.Engine.db);
  assert_consistent e

(* random base updates on synthetic data: consistency must hold after
   every group *)
let random_base_updates =
  Helpers.qtest ~count:30 "random base updates keep view = republication"
    Helpers.small_dataset_gen Helpers.params_print
    (fun p ->
      let d, e = Helpers.engine_of_params p in
      let rng = Rng.create (p.Synth.seed + 99) in
      let n = p.Synth.n in
      let ops_groups =
        List.init 4 (fun g ->
            List.init 2 (fun j ->
                let kind = Rng.int rng 3 in
                match kind with
                | 0 ->
                    (* new H edge between existing keys, upward in key
                       order (acyclic by construction) *)
                    let a = Rng.int rng (n - 1) in
                    let b = a + 1 + Rng.int rng (n - a - 1) in
                    [ Group_update.Insert ("H", [| i a; i b |]) ]
                | 1 -> (
                    (* delete a random existing H edge *)
                    match d.Synth.h_pairs with
                    | [] -> []
                    | pairs ->
                        let a, b =
                          List.nth pairs (Rng.int rng (List.length pairs))
                        in
                        [ Group_update.Delete ("H", [ i a; i b ]) ])
                | _ ->
                    (* a brand-new key with C/CU/F rows plus a link *)
                    let k = (3 * n) + 500 + (g * 10) + j in
                    let parent = Rng.int rng n in
                    let row =
                      Array.init 16 (fun c ->
                          if c = 0 then i k
                          else if c = 15 then Value.Bool (k land 1 = 1)
                          else i ((k * 31) + c))
                    in
                    [
                      Group_update.Insert ("CU", row);
                      Group_update.Insert ("F", Array.copy row);
                      Group_update.Insert ("H", [| i parent; i k |]);
                    ])
            |> List.concat)
      in
      List.for_all
        (fun group ->
          if group = [] then true
          else
            match Base_update.apply e group with
            | Ok _ -> (
                match Engine.check_consistency e with
                | Ok () -> true
                | Error m -> QCheck2.Test.fail_reportf "inconsistent: %s" m)
            | Error _ -> (
                (* rejection must leave everything consistent too *)
                match Engine.check_consistency e with
                | Ok () -> true
                | Error m ->
                    QCheck2.Test.fail_reportf "inconsistent after reject: %s" m))
        ops_groups)

(* interleaving view updates and base updates *)
let test_interleaved () =
  let e = Registrar.engine () in
  let ok1 =
    Base_update.apply e
      [ Group_update.Insert ("course", [| s "CS555"; s "Crypto"; s "CS" |]) ]
  in
  check "base ok" true (Result.is_ok ok1);
  (match
     Engine.apply e
       (Rxv_core.Xupdate.Insert
          {
            etype = "course";
            attr = Registrar.course_attr "CS555" "Crypto";
            path = Rxv_xpath.Parser.parse "course[cno=CS650]/prereq";
          })
   with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "view update rejected: %a" Engine.pp_rejection r);
  let ok2 =
    Base_update.apply e
      [ Group_update.Delete ("prereq", [ s "CS650"; s "CS555" ]) ]
  in
  check "base delete ok" true (Result.is_ok ok2);
  assert_consistent e

(* a rule whose parameter is NOT bound to a column (it only appears in a
   constant comparison) cannot be impact-localized; Base_update must fall
   back to reconciling every live parent and still stay consistent *)
let test_unlocalizable_rule_fallback () =
  let module Schema = Rxv_relational.Schema in
  let module Spj = Rxv_relational.Spj in
  let module Dtd = Rxv_xml.Dtd in
  let module Atg = Rxv_atg.Atg in
  let module Database = Rxv_relational.Database in
  let schema =
    Schema.db
      [ Schema.relation "item" [ Schema.attr "id" Value.TInt ] ~key:[ "id" ] ]
  in
  let dtd =
    Dtd.make ~root:"root"
      [
        ("root", Dtd.Star "bucket");
        ("bucket", Dtd.Seq [ "bid"; "members" ]);
        ("bid", Dtd.Pcdata);
        ("members", Dtd.Star "m");
        ("m", Dtd.Pcdata);
      ]
  in
  let q_root =
    (* two fixed buckets, keyed by a constant marker tuple *)
    Spj.make ~name:"Qroot" ~from:[ ("i", "item") ]
      ~where:[ Spj.eq (Spj.col "i" "id") (Spj.const (Value.Int 0)) ]
      ~select:[ ("id", Spj.col "i" "id") ]
  in
  let q_members =
    (* every bucket shows ALL items — the parameter $0 never joins a
       column, so impact analysis cannot localize it *)
    Spj.make ~name:"Qmembers" ~from:[ ("i", "item") ]
      ~where:[ Spj.eq (Spj.param 0) (Spj.param 0) ]
      ~select:[ ("id", Spj.col "i" "id") ]
  in
  let atg =
    Atg.make ~name:"buckets" ~schema ~dtd
      [
        ("root", Atg.star q_root);
        ( "bucket",
          Atg.R_seq
            [ ("bid", [| Atg.From_parent 0 |]); ("members", [| Atg.From_parent 0 |]) ]
        );
        ("bid", Atg.R_pcdata 0);
        ("members", Atg.star q_members);
        ("m", Atg.R_pcdata 0);
      ]
  in
  let db = Database.create schema in
  Database.insert db "item" [| i 0 |];
  Database.insert db "item" [| i 1 |];
  let e = Engine.create atg db in
  (* inserting item 2 affects the members rule for every bucket *)
  let r = apply_ok e [ Group_update.Insert ("item", [| i 2 |]) ] in
  check "edges added under the bucket" true (r.Base_update.edges_added >= 1);
  assert_consistent e;
  let r2 = apply_ok e [ Group_update.Delete ("item", [ i 2 ]) ] in
  check "edges removed again" true (r2.Base_update.edges_removed >= 1);
  assert_consistent e

let tests =
  [
    Alcotest.test_case "unlocalizable rule falls back" `Quick
      test_unlocalizable_rule_fallback;
    Alcotest.test_case "insert course row" `Quick test_insert_course_row;
    Alcotest.test_case "insert prereq row" `Quick test_insert_prereq_row;
    Alcotest.test_case "delete enroll row" `Quick test_delete_enroll_row;
    Alcotest.test_case "delete course row" `Quick test_delete_course_row;
    Alcotest.test_case "mixed group" `Quick test_mixed_group;
    Alcotest.test_case "cyclic base update rejected" `Quick
      test_cyclic_base_update_rejected;
    Alcotest.test_case "cycle outside the view stays out" `Quick
      test_latent_cycle_rejected;
    Alcotest.test_case "reversed edge in one batch accepted" `Quick
      test_reversed_edge_accepted;
    Alcotest.test_case "cycle rollback after a reversal" `Quick
      test_cycle_rollback_after_reversal;
    random_base_updates;
    Alcotest.test_case "interleaved view/base updates" `Quick
      test_interleaved;
  ]
