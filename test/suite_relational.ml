(* Tests for the relational substrate: values, schemas, key enforcement,
   group updates, SPJ evaluation (against a naive reference), key
   preservation, and the symbolic evaluator. *)

module Value = Rxv_relational.Value
module Schema = Rxv_relational.Schema
module Tuple = Rxv_relational.Tuple
module Relation = Rxv_relational.Relation
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Spj = Rxv_relational.Spj
module Eval = Rxv_relational.Eval
module Symbolic = Rxv_relational.Symbolic
module Registrar = Rxv_workload.Registrar

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let i = Value.int
let s = Value.str

(* --- values --- *)

let test_value_basics () =
  check "int type" true (Value.has_ty Value.TInt (i 3));
  check "str not int" false (Value.has_ty Value.TInt (s "3"));
  check "null has no type" false (Value.has_ty Value.TStr Value.Null);
  check "bool finite" true (Value.finite_domain Value.TBool <> None);
  check "int infinite" true (Value.finite_domain Value.TInt = None);
  check "equal" true (Value.equal (s "a") (s "a"));
  check "compare distinct kinds" true (Value.compare (i 1) (s "1") <> 0);
  Alcotest.(check string) "to_string" "42" (Value.to_string (i 42))

(* --- schemas --- *)

let test_schema_validation () =
  (* duplicate attribute *)
  (try
     ignore
       (Schema.relation "r"
          [ Schema.attr "a" Value.TInt; Schema.attr "a" Value.TInt ]
          ~key:[ "a" ]);
     Alcotest.fail "duplicate attribute accepted"
   with Schema.Schema_error _ -> ());
  (* unknown key *)
  (try
     ignore (Schema.relation "r" [ Schema.attr "a" Value.TInt ] ~key:[ "b" ]);
     Alcotest.fail "unknown key accepted"
   with Schema.Schema_error _ -> ());
  (* empty key *)
  (try
     ignore (Schema.relation "r" [ Schema.attr "a" Value.TInt ] ~key:[]);
     Alcotest.fail "empty key accepted"
   with Schema.Schema_error _ -> ());
  let r =
    Schema.relation "r"
      [ Schema.attr "a" Value.TInt; Schema.attr "b" Value.TStr ]
      ~key:[ "a" ]
  in
  check_int "attr_index" 1 (Schema.attr_index r "b");
  check "is_key_attr" true (Schema.is_key_attr r 0);
  check "not key" false (Schema.is_key_attr r 1)

(* --- relations and keys --- *)

let two_col_schema =
  Schema.relation "r"
    [ Schema.attr "a" Value.TInt; Schema.attr "b" Value.TStr ]
    ~key:[ "a" ]

let test_key_enforcement () =
  let r = Relation.create two_col_schema in
  Relation.insert r [| i 1; s "x" |];
  (* idempotent re-insert *)
  Relation.insert r [| i 1; s "x" |];
  check_int "cardinal" 1 (Relation.cardinal r);
  (* conflicting insert *)
  (try
     Relation.insert r [| i 1; s "y" |];
     Alcotest.fail "key violation accepted"
   with Relation.Key_violation _ -> ());
  (* type errors *)
  (try
     Relation.insert r [| s "1"; s "y" |];
     Alcotest.fail "type error accepted"
   with Tuple.Type_error _ -> ());
  (try
     Relation.insert r [| i 2 |];
     Alcotest.fail "arity error accepted"
   with Tuple.Type_error _ -> ());
  check "mem" true (Relation.mem r [| i 1; s "x" |]);
  check "delete" true (Relation.delete_key r [ i 1 ]);
  check_int "empty" 0 (Relation.cardinal r)

let test_group_update_rollback () =
  let db = Database.create (Schema.db [ two_col_schema ]) in
  Database.insert db "r" [| i 1; s "x" |];
  (* a group whose last op violates the key must leave db unchanged *)
  let g =
    [
      Group_update.Insert ("r", [| i 2; s "y" |]);
      Group_update.Delete ("r", [ i 1 ]);
      Group_update.Insert ("r", [| i 2; s "z" |]);
      (* conflicts with first op *)
    ]
  in
  (try
     Group_update.apply db g;
     Alcotest.fail "conflicting group accepted"
   with Group_update.Apply_error _ -> ());
  check "r1 restored" true (Database.mem_key db "r" [ i 1 ]);
  check "r2 rolled back" false (Database.mem_key db "r" [ i 2 ]);
  (* a valid group applies *)
  Group_update.apply db
    [
      Group_update.Delete ("r", [ i 1 ]);
      Group_update.Insert ("r", [| i 3; s "w" |]);
    ];
  check "r3 present" true (Database.mem_key db "r" [ i 3 ]);
  check "r1 gone" false (Database.mem_key db "r" [ i 1 ])

(* --- SPJ queries --- *)

let test_key_preservation () =
  let schema = Registrar.schema in
  let q =
    Spj.make ~name:"q"
      ~from:[ ("p", "prereq"); ("c", "course") ]
      ~where:
        [
          Spj.eq (Spj.col "p" "cno2") (Spj.col "c" "cno");
        ]
      ~select:[ ("cno", Spj.col "c" "cno"); ("title", Spj.col "c" "title") ]
  in
  check "not key preserving (missing p keys)" false
    (Spj.is_key_preserving schema q);
  let q' = Spj.make_key_preserving schema q in
  check "extension is key preserving" true (Spj.is_key_preserving schema q');
  (* extension preserves the original prefix *)
  check "prefix kept" true
    (List.map fst q.Spj.select
    = List.filteri (fun idx _ -> idx < 2) (List.map fst q'.Spj.select));
  (* key positions resolve *)
  let kops = Spj.key_output_positions schema q' in
  check_int "two FROM occurrences" 2 (List.length kops);
  List.iter
    (fun (_, rname, positions) ->
      let r = Schema.find_relation schema rname in
      check_int ("key width " ^ rname) (Array.length r.Schema.key)
        (List.length positions))
    kops

let test_spj_type_check () =
  let schema = Registrar.schema in
  let bad =
    Spj.make ~name:"bad"
      ~from:[ ("c", "course") ]
      ~where:[ Spj.eq (Spj.col "c" "cno") (Spj.const (i 3)) ]
      ~select:[ ("cno", Spj.col "c" "cno") ]
  in
  try
    ignore (Spj.check schema bad);
    Alcotest.fail "type mismatch accepted"
  with Spj.Query_error _ -> ()

(* SPJ evaluation vs the naive reference on the registrar instance *)
let test_spj_eval_vs_naive () =
  let db = Registrar.sample_db () in
  let queries =
    [
      ( Spj.make ~name:"cs_courses"
          ~from:[ ("c", "course") ]
          ~where:[ Spj.eq (Spj.col "c" "dept") (Spj.const (s "CS")) ]
          ~select:
            [ ("cno", Spj.col "c" "cno"); ("title", Spj.col "c" "title") ],
        [||] );
      ( Spj.make ~name:"prereq_of"
          ~from:[ ("p", "prereq"); ("c", "course") ]
          ~where:
            [
              Spj.eq (Spj.col "p" "cno1") (Spj.param 0);
              Spj.eq (Spj.col "p" "cno2") (Spj.col "c" "cno");
            ]
          ~select:
            [ ("cno", Spj.col "c" "cno"); ("title", Spj.col "c" "title") ],
        [| s "CS650" |] );
      (* a three-way join *)
      ( Spj.make ~name:"classmates"
          ~from:[ ("e1", "enroll"); ("e2", "enroll"); ("s", "student") ]
          ~where:
            [
              Spj.eq (Spj.col "e1" "cno") (Spj.col "e2" "cno");
              Spj.eq (Spj.col "e2" "ssn") (Spj.col "s" "ssn");
            ]
          ~select:
            [
              ("ssn1", Spj.col "e1" "ssn");
              ("ssn2", Spj.col "s" "ssn");
              ("cno", Spj.col "e1" "cno");
            ],
        [||] );
      (* cross product (no join predicate) *)
      ( Spj.make ~name:"cross"
          ~from:[ ("c", "course"); ("st", "student") ]
          ~where:[]
          ~select:
            [ ("cno", Spj.col "c" "cno"); ("ssn", Spj.col "st" "ssn") ],
        [||] );
    ]
  in
  List.iter
    (fun (q, params) ->
      let got = List.sort Tuple.compare (Eval.run db q ~params ()) in
      let expect = Helpers.naive_spj_run db q ~params () in
      if got <> expect then
        Alcotest.failf "query %s: %d rows vs %d expected" q.Spj.qname
          (List.length got) (List.length expect))
    queries

(* --- symbolic evaluation --- *)

let test_symbolic_ground_agrees () =
  (* with fully ground sources, symbolic run = concrete run *)
  let db = Registrar.sample_db () in
  let schema = Registrar.schema in
  let q =
    Spj.make ~name:"q"
      ~from:[ ("p", "prereq"); ("c", "course") ]
      ~where:
        [
          Spj.eq (Spj.col "p" "cno2") (Spj.col "c" "cno");
        ]
      ~select:
        [
          ("cno1", Spj.col "p" "cno1");
          ("cno", Spj.col "c" "cno");
          ("title", Spj.col "c" "title");
        ]
  in
  let sources =
    [|
      Symbolic.Concrete (Database.relation db "prereq", fun _ -> true);
      Symbolic.Concrete (Database.relation db "course", fun _ -> true);
    |]
  in
  let rows = Symbolic.run schema q sources in
  check "no constraints on ground rows" true
    (List.for_all (fun r -> r.Symbolic.constraints = []) rows);
  let got =
    List.sort Tuple.compare
      (List.map
         (fun r ->
           Array.map
             (function Symbolic.Known v -> v | Symbolic.Var _ -> assert false)
             r.Symbolic.row)
         rows)
  in
  let expect = List.sort Tuple.compare (Eval.run db q ()) in
  check "symbolic = concrete" true (got = expect)

let test_symbolic_variables_defer () =
  (* a template with a variable joins against a concrete relation; the
     equality on the variable must be deferred as a constraint *)
  let db = Registrar.sample_db () in
  let schema = Registrar.schema in
  let q =
    Spj.make ~name:"q"
      ~from:[ ("p", "prereq"); ("c", "course") ]
      ~where:[ Spj.eq (Spj.col "p" "cno2") (Spj.col "c" "cno") ]
      ~select:[ ("cno1", Spj.col "p" "cno1"); ("cno", Spj.col "c" "cno") ]
  in
  let template : Symbolic.srow =
    [| Symbolic.Known (s "CS999"); Symbolic.Var 0 |]
  in
  let sources =
    [|
      Symbolic.Rows [ template ];
      Symbolic.Concrete (Database.relation db "course", fun _ -> true);
    |]
  in
  let rows = Symbolic.run schema q sources in
  (* one row per course, each conditioned on Var 0 = that course's cno *)
  check_int "one row per course" 5 (List.length rows);
  check "all conditioned" true
    (List.for_all (fun r -> List.length r.Symbolic.constraints = 1) rows)

(* --- Int watermarks: the database ceiling equals a full rescan --- *)

type wm_op =
  | W_insert of string * int * int  (** relation, key, Int field *)
  | W_delete of string * int
  | W_copy  (** continue on a copy (outside any frame) *)
  | W_begin
  | W_abort
  | W_commit
  | W_ceiling  (** compare {!Database.int_ceiling} with a rescan *)

let wm_schema =
  Schema.db
    [
      Schema.relation "A"
        [ Schema.attr "k" Value.TInt; Schema.attr "v" Value.TInt ]
        ~key:[ "k" ];
      Schema.relation "B"
        [
          Schema.attr "k" Value.TInt;
          Schema.attr "s" Value.TStr;
          Schema.attr "w" Value.TInt;
        ]
        ~key:[ "k" ];
    ]

let wm_ops_gen =
  QCheck2.Gen.(
    let rel = oneofl [ "A"; "B" ] and key = int_range 0 7 in
    list_size (int_range 1 60)
      (frequency
         [
           (6, map3 (fun r k v -> W_insert (r, k, v)) rel key (int_range (-3) 40));
           (4, map2 (fun r k -> W_delete (r, k)) rel key);
           (1, return W_copy);
           (2, return W_begin);
           (1, return W_abort);
           (1, return W_commit);
           (2, return W_ceiling);
         ]))

let wm_op_print = function
  | W_insert (r, k, v) -> Printf.sprintf "insert %s(%d, %d)" r k v
  | W_delete (r, k) -> Printf.sprintf "delete %s(%d)" r k
  | W_copy -> "copy"
  | W_begin -> "begin"
  | W_abort -> "abort"
  | W_commit -> "commit"
  | W_ceiling -> "ceiling"

(* the largest Int of a relation by a full scan, 0 when none *)
let rescan_ceiling r =
  Relation.fold
    (fun t m ->
      Array.fold_left
        (fun m v -> match v with Value.Int x -> max m x | _ -> m)
        m t)
    r 0

let prop_int_ceiling ops =
  let db = ref (Database.create wm_schema) and depth = ref 0 in
  let rels () = List.map (Database.relation !db) [ "A"; "B" ] in
  let ceiling_ok () =
    Database.int_ceiling !db
    = List.fold_left (fun m r -> max m (rescan_ceiling r)) 0 (rels ())
  in
  List.for_all
    (fun op ->
      (match op with
      | W_insert (r, k, v) ->
          if not (Database.mem_key !db r [ i k ]) then
            Database.insert !db r
              (if r = "A" then [| i k; i v |] else [| i k; s "x"; i v |])
      | W_delete (r, k) -> ignore (Database.delete_key !db r [ i k ])
      | W_copy -> if !depth = 0 then db := Database.copy !db
      | W_begin ->
          Database.begin_ !db;
          incr depth
      | W_abort ->
          if !depth > 0 then begin
            Database.abort !db;
            decr depth
          end
      | W_commit ->
          if !depth > 0 then begin
            Database.commit !db;
            decr depth
          end
      | W_ceiling -> ());
      (* every watermark is exact or an upper bound, without a rescan *)
      List.for_all
        (fun r ->
          match Relation.int_watermark r with
          | `Exact m -> m = rescan_ceiling r
          | `At_most m -> m >= rescan_ceiling r)
        (rels ())
      && (op <> W_ceiling || ceiling_ok ()))
    ops
  && ceiling_ok ()

let tests =
  [
    Alcotest.test_case "value basics" `Quick test_value_basics;
    Alcotest.test_case "schema validation" `Quick test_schema_validation;
    Alcotest.test_case "key enforcement" `Quick test_key_enforcement;
    Alcotest.test_case "group update rollback" `Quick
      test_group_update_rollback;
    Alcotest.test_case "key preservation" `Quick test_key_preservation;
    Alcotest.test_case "SPJ type check" `Quick test_spj_type_check;
    Alcotest.test_case "SPJ eval vs naive" `Quick test_spj_eval_vs_naive;
    Alcotest.test_case "symbolic ground agreement" `Quick
      test_symbolic_ground_agrees;
    Alcotest.test_case "symbolic variable deferral" `Quick
      test_symbolic_variables_defer;
    Helpers.qtest ~count:500
      "Int ceiling = rescan over insert/delete/copy/abort" wm_ops_gen
      (fun ops -> String.concat "; " (List.map wm_op_print ops))
      prop_int_ceiling;
  ]
