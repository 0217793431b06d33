(* MVCC snapshots: Engine.Snapshot.capture freezes the committed state
   into persistent views; queries and stats pinned to a snapshot must be
   byte-for-byte stable under arbitrary interleavings of committed
   batches, single-update aborts, group rollbacks, and direct base-table
   updates happening on the live engine — and a fresh capture must
   always agree with a fresh evaluation of the live structures. *)

module Ast = Rxv_xpath.Ast
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Dag_eval = Rxv_core.Dag_eval
module Xupdate = Rxv_core.Xupdate
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Registrar = Rxv_workload.Registrar

let check = Alcotest.(check bool)
let parse = Parser.parse

(* result equality up to list order, as in suite_eval_cache *)
let norm (r : Dag_eval.result) =
  ( List.sort compare r.Dag_eval.selected,
    List.sort compare r.Dag_eval.selected_types,
    List.sort compare r.Dag_eval.arrival_edges,
    List.sort compare r.Dag_eval.side_effects,
    List.sort compare r.Dag_eval.side_effects_delete,
    r.Dag_eval.zero_move_match )

let fresh_eval (e : Engine.t) path =
  Dag_eval.eval e.Engine.store e.Engine.topo e.Engine.reach path

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
  (* a fresh capture tracks the live state and a later generation *)
  let snap' = Engine.Snapshot.capture e in
  check "generation advanced" true
    (Engine.Snapshot.generation snap' > Engine.Snapshot.generation snap);
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

(* ---- the pinned-isolation property ---- *)

type act =
  | Ins of int
  | Del of int
  | Txn_abort of int
  | Group_abort of int
  | Base of int
      (** a direct relational update through [Base_update] — takes the
          cycle-repair/[invalidate_all] exits the view pipeline never
          does *)

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

let one_insertion d (e : Engine.t) s =
  match
    Updates.insertions d e.Engine.store (cls_of s) ~count:1 ~seed:s
      ~fresh:(s mod 2 = 0) ()
  with
  | u :: _ -> Some u
  | [] -> None

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
   snapshot memo can't answer it and the pinned read must go through the
   shared cache mid-frame *)
let mid_frame_probe = Ast.Seq (Ast.Desc_or_self, Ast.Label "sub")

let run_scenario (p, acts) =
  let d, e = Helpers.engine_of_params p in
  (* pin one snapshot; a twin captured at the same instant supplies the
     expected answers *before* any mutation runs, so the later checks on
     [snap] — evaluated from its frozen views while the writer has long
     moved on — are not answered from anything memoized pre-mutation *)
  let snap = Engine.Snapshot.capture e in
  let twin = Engine.Snapshot.capture e in
  let expected = List.map (fun pr -> norm (Engine.Snapshot.query twin pr)) probes in
  let expected_mid = norm (Engine.Snapshot.query twin mid_frame_probe) in
  let expected_stats = Engine.Snapshot.stats twin in
  let snap_stable () =
    List.for_all2
      (fun pr want -> norm (Engine.Snapshot.query snap pr) = want)
      probes expected
  in
  let step = function
    | Ins s -> (
        match one_insertion d e s with
        | Some u -> ignore (Engine.apply e u)
        | None -> ())
    | Del s -> (
        match one_deletion e s with
        | Some u -> ignore (Engine.apply e u)
        | None -> ())
    | Txn_abort s ->
        let h = Engine.Txn.begin_ e in
        (match one_insertion d e s with
        | Some u -> ignore (Engine.apply e u)
        | None -> ());
        (match one_deletion e (s + 1) with
        | Some u -> ignore (Engine.apply e u)
        | None -> ());
        (* a snapshot read with a frame open on the live engine must
           still answer from the pinned views, untouched by the frame —
           both a memoized repeat read and a first-ever read that goes
           through the shared cache mid-frame *)
        if not (norm (Engine.Snapshot.query snap (List.hd probes))
                = List.hd expected)
        then QCheck2.Test.fail_reportf "mid-txn snapshot read drifted";
        if not (norm (Engine.Snapshot.query snap mid_frame_probe)
                = expected_mid)
        then QCheck2.Test.fail_reportf "mid-txn first-read probe drifted";
        Engine.Txn.abort e h
    | Group_abort s -> (
        let us =
          (match one_insertion d e s with Some u -> [ u ] | None -> [])
          @ [ bad_update ]
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
  Helpers.qtest ~count:60
    "pinned snapshot is byte-stable across commit/abort interleavings"
    scenario_gen scenario_print run_scenario

let tests =
  [
    Alcotest.test_case "capture inside a txn frame is rejected" `Quick
      test_capture_in_txn_rejected;
    Alcotest.test_case "pinned snapshot unaffected by commits" `Quick
      test_snapshot_pinned_across_commit;
    Alcotest.test_case "snapshot stats match live at capture" `Quick
      test_snapshot_stats_match_live;
    Alcotest.test_case "live/snapshot read counters" `Quick test_read_counters;
    test_pinned_isolation;
  ]
