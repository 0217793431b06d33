(* MVCC snapshots: Engine.Snapshot.capture freezes the committed state
   into persistent views; queries and stats pinned to a snapshot must be
   byte-for-byte stable under arbitrary interleavings of committed
   batches, single-update aborts, group rollbacks, and direct base-table
   updates happening on the live engine — and a fresh capture must
   always agree with a fresh evaluation of the live structures. Live
   reads and snapshot reads must equal the two-pass oracle under
   arbitrary interleavings of view updates, base updates and aborted
   transactions, and the read counters must say what each read did. *)

module Ast = Rxv_xpath.Ast
module Parser = Rxv_xpath.Parser
module Plan = Rxv_xpath.Plan
module Store = Rxv_dag.Store
module Engine = Rxv_core.Engine
module Dag_eval = Rxv_core.Dag_eval
module Xupdate = Rxv_core.Xupdate
module Base_update = Rxv_core.Base_update
module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Relation = Rxv_relational.Relation
module Group_update = Rxv_relational.Group_update
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Registrar = Rxv_workload.Registrar

let check = Alcotest.(check bool)
let parse = Parser.parse

let norm = Helpers.norm

(* the reference answer: the two-pass oracle, evaluated from scratch *)
let fresh_eval = Helpers.oracle_eval

(* ---- unit tests ---- *)

let test_capture_in_txn_rejected () =
  let e = Registrar.engine () in
  let h = Engine.Txn.begin_ e in
  (try
     ignore (Engine.Snapshot.capture e);
     Alcotest.fail "capture inside an open frame must raise"
   with Invalid_argument _ -> ());
  Engine.Txn.abort e h;
  (* and with the frame closed it works again *)
  ignore (Engine.Snapshot.capture e)

let test_snapshot_pinned_across_commit () =
  let e = Registrar.engine () in
  let p = parse "//student" in
  let snap = Engine.Snapshot.capture e in
  let before = norm (Engine.Snapshot.query snap p) in
  check "snapshot agrees with live at capture" true
    (before = norm (Engine.query e p));
  (match Engine.apply e (Xupdate.Delete p) with
  | Ok _ -> ()
  | Error rej -> Alcotest.failf "delete rejected: %a" Engine.pp_rejection rej);
  (* the live engine moved on … *)
  check "live sees the delete" true
    ((Engine.query e p).Dag_eval.selected = []);
  (* … the pinned snapshot did not *)
  let after = norm (Engine.Snapshot.query snap p) in
  check "snapshot still sees pre-delete state" true (before = after);
  check "snapshot selection nonempty" true
    ((Engine.Snapshot.query snap p).Dag_eval.selected <> []);
  (* a fresh capture tracks the live state *)
  let snap' = Engine.Snapshot.capture e in
  check "fresh capture sees the delete" true
    ((Engine.Snapshot.query snap' p).Dag_eval.selected = [])

let test_snapshot_stats_match_live () =
  let e = Registrar.engine () in
  ignore (Engine.query e (parse "//course"));
  let live = Engine.stats e in
  let snap = Engine.Snapshot.capture e in
  let st = Engine.Snapshot.stats snap in
  Alcotest.(check int) "nodes" live.Engine.n_nodes st.Engine.n_nodes;
  Alcotest.(check int) "edges" live.Engine.n_edges st.Engine.n_edges;
  Alcotest.(check int) "|M|" live.Engine.m_size st.Engine.m_size;
  Alcotest.(check int) "|L|" live.Engine.l_size st.Engine.l_size;
  Alcotest.(check int) "occurrences" live.Engine.occurrences
    st.Engine.occurrences;
  Alcotest.(check (float 1e-9)) "sharing" live.Engine.sharing
    st.Engine.sharing;
  Alcotest.(check int) "cache hits at capture" live.Engine.cache_hits
    st.Engine.cache_hits

let test_read_counters () =
  let e = Registrar.engine () in
  let p = parse "//course" in
  ignore (Engine.query e p);
  let snap = Engine.Snapshot.capture e in
  ignore (Engine.Snapshot.query snap p);
  ignore (Engine.Snapshot.query snap p);
  let st = Engine.stats e in
  Alcotest.(check int) "one live read" 1 st.Engine.live_reads;
  Alcotest.(check int) "two snapshot reads" 2 st.Engine.snapshot_reads

(* The evaluation counters: every live read and every update's path is
   evaluated (a miss); a snapshot's first read of a path is evaluated on
   its frozen views (a miss), and a repeat read is answered by its memo
   (a hit). Nothing is ever partial. *)
let test_eval_counters () =
  let e = Registrar.engine () in
  let p = parse "//course" in
  let stats () = Engine.stats e in
  let expect what (st : Engine.stats) ~hits ~misses =
    Alcotest.(check int) (what ^ ": hits") hits st.Engine.cache_hits;
    Alcotest.(check int) (what ^ ": misses") misses st.Engine.cache_misses;
    Alcotest.(check int) (what ^ ": partials") 0 st.Engine.cache_partials
  in
  expect "new engine" (stats ()) ~hits:0 ~misses:0;
  ignore (Engine.query e p);
  ignore (Engine.query e p);
  expect "two live reads" (stats ()) ~hits:0 ~misses:2;
  let snap = Engine.Snapshot.capture e in
  ignore (Engine.Snapshot.query snap p);
  expect "a snapshot's first read" (stats ()) ~hits:0 ~misses:3;
  ignore (Engine.Snapshot.query snap p);
  expect "its second read" (stats ()) ~hits:1 ~misses:3;
  ignore (Engine.Snapshot.query (Engine.Snapshot.capture e) p);
  expect "another snapshot's first read" (stats ()) ~hits:1 ~misses:4;
  (match
     Engine.apply e
       (Xupdate.Insert
          {
            etype = "course";
            attr = Registrar.course_attr "CS210" "Systems";
            path = parse "course[cno=CS650]/prereq";
          })
   with
  | Ok _ -> ()
  | Error rej -> Alcotest.failf "insert rejected: %a" Engine.pp_rejection rej);
  expect "an update" (stats ()) ~hits:1 ~misses:5;
  expect "the first snapshot, as captured" (Engine.Snapshot.stats snap) ~hits:0
    ~misses:2

(* ---- the pinned-isolation property ---- *)

type act =
  | Ins of int
  | Del of int
  | Txn_abort of int
  | Group_abort of int
  | Base of int
      (** a direct relational update through [Base_update] — its
          repairs bypass [Engine.apply] *)

let pp_act ppf = function
  | Ins s -> Fmt.pf ppf "ins:%d" s
  | Del s -> Fmt.pf ppf "del:%d" s
  | Txn_abort s -> Fmt.pf ppf "txn-abort:%d" s
  | Group_abort s -> Fmt.pf ppf "group-abort:%d" s
  | Base s -> Fmt.pf ppf "base:%d" s

let act_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun s -> Ins s) (int_range 0 9_999));
        (3, map (fun s -> Del s) (int_range 0 9_999));
        (1, map (fun s -> Txn_abort s) (int_range 0 9_999));
        (1, map (fun s -> Group_abort s) (int_range 0 9_999));
        (1, map (fun s -> Base s) (int_range 0 9_999));
      ])

let scenario_gen =
  QCheck2.Gen.(
    let* p = Helpers.small_dataset_gen in
    let* acts = list_size (int_range 6 16) act_gen in
    return (p, acts))

let scenario_print (p, acts) =
  Fmt.str "%s %a" (Helpers.params_print p) (Fmt.Dump.list pp_act) acts

let cls_of s =
  match s mod 3 with 0 -> Updates.W1 | 1 -> Updates.W2 | _ -> Updates.W3

(* a fresh-key insertion, or for odd [s] the deletion of an edge and
   its re-link, drawn together: a re-link of an edge still in the view
   would change nothing *)
let insertions d (e : Engine.t) s =
  let store = e.Engine.store in
  if s mod 2 = 0 then Updates.insertions d store (cls_of s) ~count:1 ~seed:s ()
  else
    List.concat_map
      (fun (del, ins) -> [ del; ins ])
      (Updates.relinks d store (cls_of s) ~count:1 ~seed:s)

let one_deletion (e : Engine.t) s =
  match Updates.deletions e.Engine.store (cls_of s) ~count:1 ~seed:s with
  | u :: _ -> Some u
  | [] -> None

(* an update that always fails validation, to force a group rollback *)
let bad_update =
  Xupdate.Insert { etype = "zzz"; attr = [||]; path = Ast.Label "c" }

let probes =
  [
    Ast.Seq (Ast.Desc_or_self, Ast.Label "c");
    Ast.Seq (Ast.Label "c", Ast.Seq (Ast.Label "sub", Ast.Label "c"));
    Ast.Seq
      ( Ast.Desc_or_self,
        Ast.Where (Ast.Label "c", Ast.Exists (Ast.Label "sub")) );
  ]

(* a probe never queried on [snap] before a Txn_abort act, so its first
   read happens with a journal frame open on the live engine — the
   snapshot memo can't answer it and the pinned read must evaluate the
   frozen views mid-frame *)
let mid_frame_probe = Ast.Seq (Ast.Desc_or_self, Ast.Label "sub")

let run_scenario (p, acts) =
  let d, e = Helpers.engine_of_params p in
  (* pin one snapshot; the oracle on the live structures supplies the
     expected answers and a twin captured at the same instant the
     expected stats, *before* any mutation runs, so the later checks on
     [snap] — evaluated from its frozen views while the writer has long
     moved on — are not answered from anything memoized pre-mutation *)
  let snap = Engine.Snapshot.capture e in
  let twin = Engine.Snapshot.capture e in
  let expected = List.map (fun pr -> norm (fresh_eval e pr)) probes in
  let expected_mid = norm (fresh_eval e mid_frame_probe) in
  let expected_stats = Engine.Snapshot.stats twin in
  let snap_stable () =
    List.for_all2
      (fun pr want -> norm (Engine.Snapshot.query snap pr) = want)
      probes expected
  in
  let step = function
    | Ins s -> List.iter (fun u -> ignore (Engine.apply e u)) (insertions d e s)
    | Del s -> (
        match one_deletion e s with
        | Some u -> ignore (Engine.apply e u)
        | None -> ())
    | Txn_abort s ->
        let h = Engine.Txn.begin_ e in
        List.iter (fun u -> ignore (Engine.apply e u)) (insertions d e s);
        (match one_deletion e (s + 1) with
        | Some u -> ignore (Engine.apply e u)
        | None -> ());
        (* a snapshot read with a frame open on the live engine must
           still answer from the pinned views, untouched by the frame —
           both a memoized repeat read and a first-ever read that
           evaluates them mid-frame *)
        if not (norm (Engine.Snapshot.query snap (List.hd probes))
                = List.hd expected)
        then QCheck2.Test.fail_reportf "mid-txn snapshot read drifted";
        if not (norm (Engine.Snapshot.query snap mid_frame_probe)
                = expected_mid)
        then QCheck2.Test.fail_reportf "mid-txn first-read probe drifted";
        Engine.Txn.abort e h
    | Group_abort s -> (
        let us =
          insertions d e s @ [ bad_update ]
        in
        match Engine.apply_group e us with
        | Ok _ -> QCheck2.Test.fail_reportf "invalid group accepted"
        | Error _ -> ())
    | Base s ->
        (* insert a forward H edge (respects the generator's a < b
           acyclicity invariant); accepted or rejected, the pinned
           snapshot must not notice *)
        let n = p.Synth.n in
        if n >= 2 then begin
          let a = s mod (n - 1) in
          let b = a + 1 + (s mod (n - a - 1)) in
          ignore
            (Rxv_core.Base_update.apply e
               [
                 Rxv_relational.Group_update.Insert
                   ("H", [| Rxv_relational.Value.int a;
                            Rxv_relational.Value.int b |]);
               ])
        end
  in
  List.iter
    (fun a ->
      step a;
      if not (snap_stable ()) then
        QCheck2.Test.fail_reportf "pinned snapshot drifted after %a" pp_act a)
    acts;
  (* pinned stats are byte-equal to the twin's pre-mutation answer *)
  if Engine.Snapshot.stats snap <> expected_stats then
    QCheck2.Test.fail_reportf "pinned snapshot stats drifted";
  (* and a fresh capture agrees with fresh evaluation of the live state *)
  let now = Engine.Snapshot.capture e in
  List.for_all
    (fun pr -> norm (Engine.Snapshot.query now pr) = norm (fresh_eval e pr))
    probes

let test_pinned_isolation =
  Helpers.qtest ~count:60 ~long_factor:50
    "pinned snapshot is byte-stable across commit/abort interleavings"
    scenario_gen scenario_print run_scenario

(* ---- live and snapshot reads across interleavings ----

   A live read evaluates the live structures, inside a transaction frame
   too; a snapshot read evaluates the frozen views, whose text lookup
   [Store.freeze] patches from the nodes touched since the last capture.
   Under arbitrary interleavings of view updates, re-links, base
   updates, reads and aborted transactions, both must equal the
   two-pass oracle evaluated from scratch, on probes that anchor on the
   key the last insertion created. *)

module Interleaving = struct
  type act =
    | Ins of int
    | Relink of int
    | Del of int
    | Base of int
    | Query of Ast.path
    | Snap of Ast.path
    | Txn_abort of int
    | Nested_abort of int
    | Group_abort of int

  let pp_act ppf = function
    | Ins s -> Fmt.pf ppf "ins:%d" s
    | Relink s -> Fmt.pf ppf "relink:%d" s
    | Del s -> Fmt.pf ppf "del:%d" s
    | Base s -> Fmt.pf ppf "base:%d" s
    | Query p -> Fmt.pf ppf "q(%a)" Ast.pp_path p
    | Snap p -> Fmt.pf ppf "snap(%a)" Ast.pp_path p
    | Txn_abort s -> Fmt.pf ppf "txn-abort:%d" s
    | Nested_abort s -> Fmt.pf ppf "nested-abort:%d" s
    | Group_abort s -> Fmt.pf ppf "group-abort:%d" s

  let act_gen ~max_key =
    QCheck2.Gen.(
      frequency
        [
          (2, map (fun s -> Ins s) (int_range 0 9_999));
          (1, map (fun s -> Relink s) (int_range 0 9_999));
          (2, map (fun s -> Del s) (int_range 0 9_999));
          (2, map (fun s -> Base s) (int_range 0 9_999));
          (3, map (fun p -> Query p) (Helpers.synth_path_gen ~max_key));
          (2, map (fun p -> Snap p) (Helpers.synth_path_gen ~max_key));
          (1, map (fun s -> Txn_abort s) (int_range 0 9_999));
          (1, map (fun s -> Nested_abort s) (int_range 0 9_999));
          (1, map (fun s -> Group_abort s) (int_range 0 9_999));
        ])

  let scenario_gen =
    QCheck2.Gen.(
      let* p = Helpers.small_dataset_gen in
      let* acts =
        list_size (int_range 6 16) (act_gen ~max_key:(p.Synth.n + 5))
      in
      return (p, acts))

  let scenario_print (p, acts) =
    Fmt.str "%s %a" (Helpers.params_print p) (Fmt.Dump.list pp_act) acts

  (* link an existing c under a sub that lacks it, its subtree shared and
     no node new: only the sub's row and its ancestors' change. Keys grow
     along the generated edges, so a sub with a smaller key is rarely
     below the c; when it is, Xinsert rejects the cycle. *)
  let one_relink (e : Engine.t) s =
    let store = e.Engine.store in
    let key id = Value.to_string (Store.node store id).Store.attr.(0) in
    let subs = Store.gen_ids store "sub" in
    let pairs =
      List.concat_map
        (fun c ->
          List.filter_map
            (fun sub ->
              if
                Value.compare (Store.node store sub).Store.attr.(0)
                  (Store.node store c).Store.attr.(0)
                < 0
                && not (Store.mem_edge store sub c)
              then Some (sub, c)
              else None)
            subs)
        (Store.gen_ids store "c")
    in
    match pairs with
    | [] -> None
    | _ ->
        let sub, c = List.nth pairs (s mod List.length pairs) in
        Some
          (Xupdate.Insert
             {
               etype = "c";
               attr = (Store.node store c).Store.attr;
               path = parse (Printf.sprintf "//c[cid=%s]/sub" (key sub));
             })

  let h_tuples db =
    List.sort compare (Relation.to_list (Database.relation db "H"))

  let h_key (t : Rxv_relational.Tuple.t) = [ t.(0); t.(1) ]

  (* one H tuple through Base_update.apply, chosen by [s] from the
     current H relation: delete one, re-insert one deleted earlier
     ([gone]), or insert the reverse of one. The reverse closes a cycle
     whenever both keys are in the view, so the update takes the
     Would_cycle exit. *)
  let base_update (e : Engine.t) gone s =
    let db = e.Engine.db in
    let absent t = not (Database.mem_key db "H" (h_key t)) in
    let pick l = List.nth l (s mod List.length l) in
    let op =
      match (s mod 4, h_tuples db, List.filter absent !gone) with
      | (0 | 1), (_ :: _ as hs), _ ->
          let t = pick hs in
          gone := t :: !gone;
          Some (Group_update.Delete ("H", h_key t))
      | 2, _, (_ :: _ as back) -> Some (Group_update.Insert ("H", pick back))
      | 3, (_ :: _ as hs), _ ->
          let t = pick hs in
          let rev = [| t.(1); t.(0) |] in
          if absent rev then Some (Group_update.Insert ("H", rev)) else None
      | _ -> None
    in
    Option.iter (fun op -> ignore (Base_update.apply e [ op ])) op

  let c_with_cid k =
    Ast.Seq
      (Ast.Desc_or_self, Ast.Where (Ast.Label "c", Ast.Eq (Ast.Label "cid", k)))

  let probes =
    [
      Ast.Seq (Ast.Desc_or_self, Ast.Label "c");
      Ast.Seq (Ast.Label "c", Ast.Seq (Ast.Label "sub", Ast.Label "c"));
      Ast.Seq
        ( Ast.Desc_or_self,
          Ast.Where (Ast.Label "c", Ast.Exists (Ast.Label "sub")) );
      (* a text comparison anchored at a text node that a deletion may
         have removed *)
      c_with_cid "1";
      (* the leaves: a c turns into one when its sub loses its last
         child *)
      Ast.Seq
        ( Ast.Desc_or_self,
          Ast.Where
            ( Ast.Label "c",
              Ast.Not (Ast.Exists (Ast.Seq (Ast.Label "sub", Ast.Label "c")))
            ) );
    ]

  (* a live read, anchored and not, against the oracle *)
  let live_matches (e : Engine.t) path =
    let reference = norm (fresh_eval e path) in
    norm (Engine.query e path) = reference
    && norm
         (Dag_eval.eval_plan_src
            (Dag_eval.live_src
               ~text_nodes:(fun _ _ -> None)
               e.Engine.store e.Engine.topo e.Engine.reach)
            (Plan.compile path))
       = reference

  let run_scenario (p, acts) =
    let d, e = Helpers.engine_of_params p in
    let gone = ref [] in
    (* the key of the last insertion: a fresh key the generated paths
       never name, whose text node only the latest freeze can know *)
    let last_key = ref None in
    let probes () =
      match !last_key with
      | Some k -> c_with_cid k :: probes
      | None -> probes
    in
    let apply_all us =
      List.iter
        (fun u ->
          (match u with
          | Xupdate.Insert { attr; _ } ->
              last_key := Some (Value.to_string attr.(0))
          | Xupdate.Delete _ -> ());
          ignore (Engine.apply e u))
        us
    in
    let check_live what paths =
      List.iter
        (fun path ->
          if not (live_matches e path) then
            QCheck2.Test.fail_reportf "%slive read ≠ oracle for %a" what
              Ast.pp_path path)
        paths
    in
    let step = function
      | Ins s -> apply_all (insertions d e s)
      | Relink s -> apply_all (Option.to_list (one_relink e s))
      | Del s -> apply_all (Option.to_list (one_deletion e s))
      | Base s -> base_update e gone s
      | Query path -> check_live "" (path :: probes ())
      | Snap path ->
          let snap = Engine.Snapshot.capture e in
          List.iter
            (fun path ->
              if
                norm (Engine.Snapshot.query snap path)
                <> norm (fresh_eval e path)
              then
                QCheck2.Test.fail_reportf "snapshot ≠ oracle for %a"
                  Ast.pp_path path)
            (path :: probes ())
      | Txn_abort s ->
          let h = Engine.Txn.begin_ e in
          apply_all (insertions d e s);
          apply_all (Option.to_list (one_deletion e (s + 1)));
          check_live "mid-txn " (probes ());
          Engine.Txn.abort e h
      | Nested_abort s ->
          (* each group commits into the open frame, which the abort
             must roll back *)
          let h = Engine.Txn.begin_ e in
          List.iter
            (fun u -> ignore (Engine.apply_group e [ u ]))
            (insertions d e s);
          Option.iter
            (fun u -> ignore (Engine.apply_group e [ u ]))
            (one_deletion e (s + 1));
          check_live "mid-txn, after committed groups, " (probes ());
          Engine.Txn.abort e h
      | Group_abort s -> (
          match Engine.apply_group e (insertions d e s @ [ bad_update ]) with
          | Ok _ -> QCheck2.Test.fail_reportf "invalid group accepted"
          | Error _ -> ())
    in
    List.iter step acts;
    List.for_all (live_matches e) (probes ())

  let test =
    Helpers.qtest ~count:60 ~long_factor:50
      "live and snapshot reads ≡ oracle across update/base-update/abort \
       interleavings"
      scenario_gen scenario_print run_scenario
end

let tests =
  [
    Alcotest.test_case "capture inside a txn frame is rejected" `Quick
      test_capture_in_txn_rejected;
    Alcotest.test_case "pinned snapshot unaffected by commits" `Quick
      test_snapshot_pinned_across_commit;
    Alcotest.test_case "snapshot stats match live at capture" `Quick
      test_snapshot_stats_match_live;
    Alcotest.test_case "live/snapshot read counters" `Quick test_read_counters;
    Alcotest.test_case "memo hit and evaluation counters" `Quick
      test_eval_counters;
    test_pinned_isolation;
    Interleaving.test;
  ]
