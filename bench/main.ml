(* Benchmark harness regenerating every table and figure of the paper's
   experimental study (Section 5).

   Usage:
     dune exec bench/main.exe                 -- all experiments, default scale
     dune exec bench/main.exe -- fig11a       -- one experiment
     dune exec bench/main.exe -- fig10b table1  -- several experiments
     dune exec bench/main.exe -- --quick all  -- reduced sizes (CI)
     dune exec bench/main.exe -- --smoke all  -- tiny sizes (runtest smoke)
     dune exec bench/main.exe -- all --json BENCH_results.json
                                              -- also write every series plus
                                                 per-experiment GC counters as
                                                 JSON (self-validated)
     dune exec bench/main.exe -- bechamel     -- Bechamel micro-suite
                                                 (one Test.make per figure)

   Absolute numbers will differ from the paper's 2007 testbed; the
   *shapes* are the reproduction target (see EXPERIMENTS.md):
   - linear scaling in |C| of every phase (Figs. 11(a)-(f));
   - deletions dominated by XPath evaluation, W1 (//) the costliest;
   - Algorithm delete's cost growing with |Ep(r)|, Algorithm insert flat
     (Fig. 11(g));
   - Xinsert and maintenance linear in |ST(A,t)|, Xdelete flat
     (Fig. 11(h));
   - incremental maintenance beating recomputation by a widening factor
     (Table 1). *)

module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Relation = Rxv_relational.Relation
module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Dag_eval = Rxv_core.Dag_eval
module Vdelete = Rxv_core.Vdelete
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Ast = Rxv_xpath.Ast
module Persist = Rxv_persist.Persist
module Wal = Rxv_persist.Wal
module Checkpoint = Rxv_persist.Checkpoint
module Group_update = Rxv_relational.Group_update
module Base_update = Rxv_core.Base_update
module Registrar = Rxv_workload.Registrar
module Server = Rxv_server.Server
module Client = Rxv_server.Client
module Proto = Rxv_server.Proto
module Metrics = Rxv_server.Metrics
module Batcher = Rxv_server.Batcher
module Follower = Rxv_replica.Follower
module Parser = Rxv_xpath.Parser
module Plan = Rxv_xpath.Plan

let scale : [ `Full | `Quick | `Smoke ] ref = ref `Full

(* pick a per-scale value; `Smoke keeps everything small enough for a
   sub-second run under `dune runtest` *)
let by_scale ~full ~quick ~smoke =
  match !scale with `Full -> full | `Quick -> quick | `Smoke -> smoke

let sizes () =
  by_scale
    ~full:[ 1_000; 3_000; 10_000; 30_000; 100_000 ]
    ~quick:[ 1_000; 3_000 ] ~smoke:[ 300 ]

let ops_per_class () = by_scale ~full:10 ~quick:4 ~smoke:2

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let dataset n = Synth.generate (Synth.default_params ~seed:42 n)

let engine_for n =
  let d = dataset n in
  (d, Engine.create (Synth.atg ()) d.Synth.db)

(* ---------- result recording (stdout tables + JSON mirror) ---------- *)

type jtable = {
  jt_title : string;
  jt_cols : string list;
  mutable jt_rows : string list list;  (* newest first *)
}

(* tables opened by the experiment currently running, newest first *)
let cur_tables : jtable list ref = ref []

let header title cols =
  Printf.printf "\n== %s ==\n%s\n%!" title (String.concat "\t" cols);
  cur_tables := { jt_title = title; jt_cols = cols; jt_rows = [] } :: !cur_tables

let row cells =
  Printf.printf "%s\n%!" (String.concat "\t" cells);
  match !cur_tables with
  | t :: _ -> t.jt_rows <- cells :: t.jt_rows
  | [] -> ()

let ms t = Printf.sprintf "%.2f" (t *. 1000.)

(* one JSON object per completed experiment, newest first *)
let json_entries : Json_out.t list ref = ref []

let json_of_table t =
  Json_out.Obj
    [
      ("title", Json_out.Str t.jt_title);
      ("columns", Json_out.List (List.map (fun c -> Json_out.Str c) t.jt_cols));
      ( "rows",
        Json_out.List
          (List.rev_map
             (fun cells -> Json_out.List (List.map Json_out.cell cells))
             t.jt_rows) );
    ]

(* Run one experiment, capturing its tables, wall time and GC-counter
   deltas (allocation words and collection counts) for the JSON report. *)
let run_experiment name (f : unit -> unit) =
  cur_tables := [];
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  f ();
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let dw field = field g1 -. field g0 in
  let di field = field g1 - field g0 in
  let gc =
    Json_out.Obj
      [
        ("minor_words", Json_out.Float (dw (fun (s : Gc.stat) -> s.minor_words)));
        ( "promoted_words",
          Json_out.Float (dw (fun (s : Gc.stat) -> s.promoted_words)) );
        ("major_words", Json_out.Float (dw (fun (s : Gc.stat) -> s.major_words)));
        ( "minor_collections",
          Json_out.Int (di (fun (s : Gc.stat) -> s.minor_collections)) );
        ( "major_collections",
          Json_out.Int (di (fun (s : Gc.stat) -> s.major_collections)) );
        ("compactions", Json_out.Int (di (fun (s : Gc.stat) -> s.compactions)));
        ("heap_words", Json_out.Int (Gc.quick_stat ()).Gc.heap_words);
      ]
  in
  json_entries :=
    Json_out.Obj
      [
        ("experiment", Json_out.Str name);
        ("wall_s", Json_out.Float wall);
        ("gc", gc);
        ("tables", Json_out.List (List.rev_map json_of_table !cur_tables));
      ]
    :: !json_entries;
  cur_tables := []

let scale_name () =
  match !scale with `Full -> "full" | `Quick -> "quick" | `Smoke -> "smoke"

let write_json path =
  let doc =
    Json_out.Obj
      [
        ("suite", Json_out.Str "rxv-bench");
        ("scale", Json_out.Str (scale_name ()));
        ("unix_time", Json_out.Float (Unix.time ()));
        ("experiments", Json_out.List (List.rev !json_entries));
      ]
  in
  let s = Json_out.to_string doc in
  (match Json_out.validate s with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "internal error: emitted invalid JSON: %s\n%!" msg;
      exit 1);
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d experiments, validated)\n%!" path
    (List.length !json_entries)

(* ---------- Fig. 10(b): dataset statistics ---------- *)

let fig10b () =
  header "fig10b: dataset statistics (cf. Fig. 10(b))"
    [ "|C|"; "|H|"; "tree_nodes"; "dag_nodes"; "|V|(edges)"; "|M|"; "|L|"; "shared%" ];
  List.iter
    (fun n ->
      let d, e = engine_for n in
      let st = Engine.stats e in
      row
        [
          string_of_int n;
          string_of_int (Relation.cardinal (Database.relation d.Synth.db "H"));
          string_of_int st.Engine.occurrences;
          string_of_int st.Engine.n_nodes;
          string_of_int st.Engine.n_edges;
          string_of_int st.Engine.m_size;
          string_of_int st.Engine.l_size;
          Printf.sprintf "%.1f" (100. *. st.Engine.sharing);
        ])
    (sizes ())

(* ---------- Figs. 11(a)-(f): update performance vs database size ------ *)

type phase_totals = {
  mutable eval : float;
  mutable translate : float;
  mutable maintain : float;
  mutable applied : int;
  mutable rejected : int;
}

let run_workload e updates =
  let t =
    { eval = 0.; translate = 0.; maintain = 0.; applied = 0; rejected = 0 }
  in
  List.iter
    (fun u ->
      match Engine.apply ~policy:`Proceed e u with
      | Ok r ->
          t.eval <- t.eval +. r.Engine.timings.Engine.t_eval;
          t.translate <- t.translate +. r.Engine.timings.Engine.t_translate;
          t.maintain <- t.maintain +. r.Engine.timings.Engine.t_maintain;
          t.applied <- t.applied + 1
      | Error _ -> t.rejected <- t.rejected + 1)
    updates;
  t

let fig11_deletions tag cls =
  header
    (Printf.sprintf
       "%s: %s deletions vs |C| (cf. Fig. 11; times per %d-op workload)" tag
       (Updates.cls_name cls) (ops_per_class ()))
    [ "|C|"; "xpath_ms"; "translate_ms"; "maintain_ms"; "applied"; "rejected" ];
  List.iter
    (fun n ->
      let _, e = engine_for n in
      let us =
        Updates.deletions e.Engine.store cls ~count:(ops_per_class ()) ~seed:7
      in
      let t = run_workload e us in
      row
        [
          string_of_int n; ms t.eval; ms t.translate; ms t.maintain;
          string_of_int t.applied; string_of_int t.rejected;
        ])
    (sizes ())

let fig11_insertions tag cls =
  header
    (Printf.sprintf
       "%s: %s insertions vs |C| (cf. Fig. 11; fixed |ST(A,t)|)" tag
       (Updates.cls_name cls))
    [ "|C|"; "xpath_ms"; "translate_ms"; "maintain_ms"; "applied"; "rejected" ];
  List.iter
    (fun n ->
      let d, e = engine_for n in
      let us =
        Updates.insertions d e.Engine.store cls ~count:(ops_per_class ())
          ~seed:7 ()
      in
      let t = run_workload e us in
      row
        [
          string_of_int n; ms t.eval; ms t.translate; ms t.maintain;
          string_of_int t.applied; string_of_int t.rejected;
        ])
    (sizes ())

(* ---------- Fig. 11(g): varying |r[[p]]| / |Ep(r)| ---------- *)

(* paths selecting k sub parents at once: //c[cid=a or cid=b or ...]/sub *)
let multi_target_path keys =
  let filt =
    match
      List.map (fun k -> Ast.Eq (Ast.Label "cid", string_of_int k)) keys
    with
    | [] -> invalid_arg "multi_target_path"
    | f :: fs -> List.fold_left (fun acc f' -> Ast.Or (acc, f')) f fs
  in
  Ast.Seq
    ( Ast.Seq (Ast.Desc_or_self, Ast.Where (Ast.Label "c", filt)),
      Ast.Label "sub" )

(* parents (c keys) that have at least one sub child *)
let parent_keys_with_children (e : Engine.t) count =
  let out = ref [] in
  let seen = Hashtbl.create 64 in
  Store.iter_edges
    (fun u _ _ ->
      let nu = Store.node e.Engine.store u in
      if nu.Store.etype = "sub" then
        match nu.Store.attr.(0) with
        | Value.Int k when not (Hashtbl.mem seen k) ->
            Hashtbl.replace seen k ();
            out := k :: !out
        | _ -> ())
    e.Engine.store;
  let l = List.sort compare !out in
  List.filteri (fun i _ -> i < count) l

let fig11g () =
  let n = by_scale ~full:100_000 ~quick:3_000 ~smoke:300 in
  header
    (Printf.sprintf
       "fig11g: varying |r[[p]]| (insert) / selected targets (delete) at \
        |C|=%d; per-op ms" n)
    [ "targets"; "op"; "xpath_ms"; "xlate_ms"; "maintain_ms"; "status" ];
  let sweep =
    by_scale ~full:[ 1; 2; 4; 8; 16; 32 ] ~quick:[ 1; 2; 4 ] ~smoke:[ 1; 2 ]
  in
  List.iter
    (fun k ->
      (* deletion: remove the children of k parents at once *)
      let d, e = engine_for n in
      let keys = parent_keys_with_children e k in
      if List.length keys = k then begin
        let del_path = Ast.Seq (multi_target_path keys, Ast.Label "c") in
        (match Engine.apply ~policy:`Proceed e (Xupdate.Delete del_path) with
        | Ok r ->
            row
              [
                string_of_int k; "delete";
                ms r.Engine.timings.Engine.t_eval;
                ms r.Engine.timings.Engine.t_translate;
                ms r.Engine.timings.Engine.t_maintain; "ok";
              ]
        | Error _ -> row [ string_of_int k; "delete"; "-"; "-"; "-"; "rej" ]);
        (* insertion: one subtree inserted under k parents: |r[[p]]| = k *)
        let _, e2 = engine_for n in
        let keys2 = parent_keys_with_children e2 k in
        let ins =
          Xupdate.Insert
            {
              etype = "c";
              attr = Synth.c_attr (Synth.fresh_key d 1);
              path = multi_target_path keys2;
            }
        in
        match Engine.apply ~policy:`Proceed e2 ins with
        | Ok r ->
            row
              [
                string_of_int k; "insert";
                ms r.Engine.timings.Engine.t_eval;
                ms r.Engine.timings.Engine.t_translate;
                ms r.Engine.timings.Engine.t_maintain; "ok";
              ]
        | Error _ -> row [ string_of_int k; "insert"; "-"; "-"; "-"; "rej" ]
      end)
    sweep

(* ---------- Fig. 11(h): varying |ST(A,t)| ---------- *)

let subtree_size (store : Store.t) id =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (Store.children store id)
    end
  in
  go id;
  Hashtbl.length seen

let fig11h () =
  let n = by_scale ~full:100_000 ~quick:3_000 ~smoke:300 in
  header
    (Printf.sprintf "fig11h: varying |ST(A,t)| at |C|=%d, |r[[p]]|=1; per-op ms"
       n)
    [ "|ST|"; "op"; "xpath_ms"; "xlate_ms"; "maintain_ms"; "status" ];
  let _, e0 = engine_for n in
  let cands = ref [] in
  Store.iter_nodes
    (fun nd ->
      if nd.Store.etype = "c" then
        cands :=
          (subtree_size e0.Engine.store nd.Store.id, nd.Store.attr) :: !cands)
    e0.Engine.store;
  let by_size = List.sort compare !cands in
  let buckets =
    by_scale ~full:[ 3; 10; 30; 100; 300; 1000 ] ~quick:[ 3; 10; 30 ]
      ~smoke:[ 3; 10 ]
  in
  List.iter
    (fun want ->
      match List.find_opt (fun (s, _) -> s >= want) by_size with
      | None -> ()
      | Some (s, attr) -> (
          let _, e = engine_for n in
          let key = match attr.(0) with Value.Int k -> k | _ -> 0 in
          let roots = parent_keys_with_children e 64 in
          (* a parent with a smaller key can never be the subtree's
             descendant (H edges go upward in key order): no cycles *)
          match List.find_opt (fun p -> p < key) (List.rev roots) with
          | None -> ()
          | Some p ->
              let path =
                Ast.Seq
                  ( Ast.Seq
                      ( Ast.Desc_or_self,
                        Ast.Where
                          ( Ast.Label "c",
                            Ast.Eq (Ast.Label "cid", string_of_int p) ) ),
                    Ast.Label "sub" )
              in
              let u = Xupdate.Insert { etype = "c"; attr; path } in
              (match Engine.apply ~policy:`Proceed e u with
              | Ok r ->
                  row
                    [
                      string_of_int s; "insert";
                      ms r.Engine.timings.Engine.t_eval;
                      ms r.Engine.timings.Engine.t_translate;
                      ms r.Engine.timings.Engine.t_maintain; "ok";
                    ]
              | Error _ ->
                  row [ string_of_int s; "insert"; "-"; "-"; "-"; "rej" ]);
              (* deleting that subtree root from the same parent: |Ep(r)|=1
                 regardless of subtree size, so Xdelete stays flat *)
              match
                Engine.apply ~policy:`Proceed e
                  (Xupdate.Delete
                     (Ast.Seq
                        ( path,
                          Ast.Where
                            ( Ast.Label "c",
                              Ast.Eq (Ast.Label "cid", string_of_int key) ) )))
              with
              | Ok r ->
                  row
                    [
                      string_of_int s; "delete";
                      ms r.Engine.timings.Engine.t_eval;
                      ms r.Engine.timings.Engine.t_translate;
                      ms r.Engine.timings.Engine.t_maintain; "ok";
                    ]
              | Error _ ->
                  row [ string_of_int s; "delete"; "-"; "-"; "-"; "rej" ]))
    buckets

(* ---------- Table 1: incremental maintenance vs recomputation -------- *)

let table1 () =
  header "table1: incremental maintenance of L and M vs recomputation (ms)"
    [
      "|C|"; "incr_insert_ms"; "incr_delete_ms"; "recompute_L_ms";
      "recompute_M_ms";
    ];
  List.iter
    (fun n ->
      let d, e = engine_for n in
      let dels =
        Updates.deletions e.Engine.store Updates.W2 ~count:(ops_per_class ())
          ~seed:3
      in
      let ins =
        Updates.insertions d e.Engine.store Updates.W2
          ~count:(ops_per_class ()) ~seed:4 ()
      in
      let td = run_workload e dels in
      let ti = run_workload e ins in
      (* recomputation cost, once per update as the non-incremental
         strategy would pay it *)
      let l', t_l = time (fun () -> Topo.of_store e.Engine.store) in
      let _, t_m = time (fun () -> Reach.compute e.Engine.store l') in
      let per_update = float_of_int (td.applied + ti.applied) in
      row
        [
          string_of_int n;
          ms ti.maintain;
          ms td.maintain;
          ms (t_l *. per_update);
          ms (t_m *. per_update);
        ])
    (sizes ())

(* ---------- Transactions: O(Δ) undo journal vs O(view) deep snapshot - *)

(* The deep-snapshot baseline the engine used before the undo journal,
   reconstructed from the public copy oracles: capture all four mutable
   components, run, and swap the copies back in on rollback. *)
let deep_capture (e : Engine.t) =
  let s_store = Store.copy e.Engine.store in
  ( Database.copy e.Engine.db,
    s_store,
    Topo.copy e.Engine.topo,
    Reach.copy ~store:s_store e.Engine.reach,
    e.Engine.seed )

let deep_restore (e : Engine.t) (db, st, tp, rc, sd) =
  e.Engine.db <- db;
  e.Engine.store <- st;
  e.Engine.topo <- tp;
  e.Engine.reach <- rc;
  e.Engine.seed <- sd

let deep_dry_run e u =
  let snap = deep_capture e in
  let r = Engine.apply ~policy:`Proceed e u in
  deep_restore e snap;
  r

let deep_apply_group e us =
  let snap = deep_capture e in
  let rec go i = function
    | [] -> Ok ()
    | u :: rest -> (
        match Engine.apply ~policy:`Proceed e u with
        | Ok _ -> go (i + 1) rest
        | Error rej ->
            deep_restore e snap;
            Error (i, rej))
  in
  go 0 us

(* guaranteed mid-group rejection: no such element type in the DTD *)
let bogus_update =
  Xupdate.Insert
    { etype = "bogus"; attr = [| Value.int 0 |]; path = Ast.Label "c" }

let transactions () =
  let probes = 10 in
  header
    (Printf.sprintf
       "transactions: undo-journal vs deep-snapshot rollback (totals over \
        %d reject probes / %d dry runs / %d rejected groups)"
       probes (ops_per_class ()) 3)
    [
      "|C|"; "probe_j_ms"; "probe_d_ms"; "probe_speedup";
      "journal_dry_ms"; "deep_dry_ms"; "dry_speedup";
      "journal_abort_ms"; "deep_abort_ms"; "abort_speedup";
    ];
  List.iter
    (fun n ->
      let d, e = engine_for n in
      (* reject probes: dry runs whose apply work is trivial (immediate
         DTD rejection), isolating the per-transaction overhead — the
         journal pays O(Δ)=O(1) here, the deep baseline O(view). This is
         the cost every rejected or what-if update used to carry. *)
      let _, t_jprobe =
        time (fun () ->
            for _ = 1 to probes do
              ignore (Engine.dry_run e bogus_update)
            done)
      in
      let _, t_dprobe =
        time (fun () ->
            for _ = 1 to probes do
              ignore (deep_dry_run e bogus_update)
            done)
      in
      let dry_ops =
        Updates.insertions d e.Engine.store Updates.W2 ~count:(ops_per_class ())
          ~seed:11 ()
        @ Updates.deletions e.Engine.store Updates.W2 ~count:(ops_per_class ())
            ~seed:12
      in
      let dry_ops = List.filteri (fun i _ -> i < ops_per_class ()) dry_ops in
      (* dry runs of real updates: both arms pay the full apply (XPath,
         translation, SAT), so the ratio shows end-to-end impact *)
      let _, t_jdry =
        time (fun () -> List.iter (fun u -> ignore (Engine.dry_run e u)) dry_ops)
      in
      let _, t_ddry =
        time (fun () -> List.iter (fun u -> ignore (deep_dry_run e u)) dry_ops)
      in
      (* rejected groups: some real work, then a guaranteed rejection —
         the whole group must roll back *)
      let groups =
        List.init 3 (fun g ->
            Updates.insertions d e.Engine.store Updates.W2 ~count:1
              ~seed:(20 + g) ()
            @ Updates.deletions e.Engine.store Updates.W2 ~count:1
                ~seed:(30 + g)
            @ [ bogus_update ])
      in
      let _, t_jabort =
        time (fun () ->
            List.iter (fun g -> ignore (Engine.apply_group e g)) groups)
      in
      let _, t_dabort =
        time (fun () -> List.iter (fun g -> ignore (deep_apply_group e g)) groups)
      in
      row
        [
          string_of_int n;
          ms t_jprobe;
          ms t_dprobe;
          Printf.sprintf "%.1fx" (t_dprobe /. t_jprobe);
          ms t_jdry;
          ms t_ddry;
          Printf.sprintf "%.1fx" (t_ddry /. t_jdry);
          ms t_jabort;
          ms t_dabort;
          Printf.sprintf "%.1fx" (t_dabort /. t_jabort);
        ])
    (sizes ())

(* ---------- Ablations: the design choices DESIGN.md calls out -------- *)

let ablation_sharing () =
  let n = by_scale ~full:20_000 ~quick:2_000 ~smoke:500 in
  header
    (Printf.sprintf
       "ablation: hierarchy density (growth knob) at |C|=%d — sharing \
        drives |M| and evaluation cost" n)
    [ "growth"; "shared%"; "dag_nodes"; "|M|"; "publish_ms"; "w1_eval_ms" ];
  List.iter
    (fun growth ->
      let d =
        Synth.generate (Synth.default_params ~growth ~seed:42 n)
      in
      let (e : Engine.t), t_pub =
        time (fun () -> Engine.create (Synth.atg ()) d.Synth.db)
      in
      let st = Engine.stats e in
      let path =
        match Updates.deletions e.Engine.store Updates.W1 ~count:1 ~seed:1 with
        | [ Xupdate.Delete p ] -> p
        | _ -> Ast.Seq (Ast.Desc_or_self, Ast.Label "c")
      in
      let _, t_eval = time (fun () -> Engine.query e path) in
      row
        [
          Printf.sprintf "%.1f" growth;
          Printf.sprintf "%.1f" (100. *. st.Engine.sharing);
          string_of_int st.Engine.n_nodes;
          string_of_int st.Engine.m_size;
          ms t_pub;
          ms t_eval;
        ])
    [ 1.0; 1.5; 2.3; 3.0; 4.0 ]

let ablation_dag_vs_tree () =
  header
    "ablation: XPath on the DAG vs on the uncompressed tree (oracle \
     evaluator)"
    [ "|C|"; "dag_nodes"; "tree_nodes"; "dag_eval_ms"; "tree_eval_ms" ];
  let sizes =
    by_scale ~full:[ 500; 1_000; 3_000; 10_000 ] ~quick:[ 500; 1_000 ]
      ~smoke:[ 300 ]
  in
  List.iter
    (fun n ->
      let _, e = engine_for n in
      let st = Engine.stats e in
      if st.Engine.occurrences <= 3_000_000 then begin
        let path =
          match Updates.deletions e.Engine.store Updates.W1 ~count:1 ~seed:1 with
          | [ Xupdate.Delete p ] -> p
          | _ -> Ast.Seq (Ast.Desc_or_self, Ast.Label "c")
        in
        let _, t_dag = time (fun () -> Engine.query e path) in
        let tree = Engine.to_tree ~max_nodes:3_000_000 e in
        let _, t_tree =
          time (fun () -> Rxv_xpath.Tree_eval.selected_uids tree path)
        in
        row
          [
            string_of_int n;
            string_of_int st.Engine.n_nodes;
            string_of_int st.Engine.occurrences;
            ms t_dag;
            ms t_tree;
          ]
      end)
    sizes

let ablations () =
  ablation_sharing ();
  ablation_dag_vs_tree ()

(* ---------- Recovery: WAL replay vs full republish ---------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* a fresh scratch directory per call (Filename.temp_dir needs 5.1+) *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rxv-bench-wal-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let recovery_workload d (e : Engine.t) =
  Updates.insertions d e.Engine.store Updates.W2 ~count:(ops_per_class ())
    ~seed:5 ()
  @ Updates.deletions e.Engine.store Updates.W2 ~count:(ops_per_class ())
      ~seed:6

(* Crash recovery = load the last checkpoint + replay the WAL tail
   through the incremental view-repair path. The baseline is recovery by
   recomputation: load the base database from the same durable image,
   roll ΔR forward on the relations alone, and republish σ(I) (and L, M)
   from scratch. Both read disk and end in the same state; the race is
   restore-DAG + incremental repair vs publish-from-scratch. *)
let recovery_vs_republish () =
  header
    (Printf.sprintf
       "recovery: checkpoint + WAL replay vs full republish (%d-op \
        workload logged after the checkpoint)"
       (2 * ops_per_class ()))
    [
      "|C|"; "applied"; "records"; "ckpt_ms"; "ckpt_KB"; "recover_ms";
      "republish_ms"; "speedup";
    ];
  List.iter
    (fun n ->
      let d, e = engine_for n in
      let dir = fresh_dir () in
      let p = Persist.open_dir ~sync:Wal.Never dir in
      Persist.attach p e;
      let ckpt_bytes, t_ckpt = time (fun () -> Persist.checkpoint p e) in
      let t = run_workload e (recovery_workload d e) in
      let records = Persist.records_since_checkpoint p in
      Persist.close p;
      Engine.detach_wal e;
      (* the crash: all that survives is the durability directory *)
      let p2 = Persist.open_dir dir in
      let recovered, t_rec =
        time (fun () ->
            match
              Persist.recover p2 (Synth.atg ())
                ~init:(fun () -> (dataset n).Synth.db)
            with
            | Ok (e', _) -> e'
            | Error msg -> failwith ("recovery: " ^ msg))
      in
      (* baseline: decode the base database from the same image, roll the
         logged ΔR forward on the relations, republish everything *)
      let gen = Persist.generation p2 in
      let _, t_rep =
        time (fun () ->
            match Checkpoint.read_database (Persist.checkpoint_path p2 gen) with
            | Error m -> failwith ("baseline read: " ^ m)
            | Ok (_, db) ->
                let batch =
                  List.concat_map
                    (fun pl ->
                      match Persist.decode_record pl with
                      | Persist.Group { group; _ } -> group
                      | Persist.Sessions _ | Persist.Epoch _ -> [])
                    (Wal.read (Persist.wal_path p2 gen)).Wal.records
                in
                Group_update.apply db batch;
                ignore (Engine.create (Synth.atg ()) db))
      in
      if n <= 1_000 then begin
        (* sanity at small scale only — the oracle republishes internally *)
        match Engine.check_consistency recovered with
        | Ok () -> ()
        | Error m -> failwith ("recovered engine inconsistent: " ^ m)
      end;
      rm_rf dir;
      row
        [
          string_of_int n;
          string_of_int t.applied;
          string_of_int records;
          ms t_ckpt;
          Printf.sprintf "%.1f" (float_of_int ckpt_bytes /. 1024.);
          ms t_rec;
          ms t_rep;
          Printf.sprintf "%.1fx" (t_rep /. t_rec);
        ])
    (sizes ())

(* how much each sync policy costs per logged commit: re-append the same
   record payloads under each policy and time just the WAL layer *)
let recovery_sync_overhead () =
  let n = by_scale ~full:10_000 ~quick:1_000 ~smoke:300 in
  let d, e = engine_for n in
  let dir = fresh_dir () in
  let p = Persist.open_dir ~sync:Wal.Never dir in
  Persist.attach p e;
  ignore (run_workload e (recovery_workload d e));
  Persist.close p;
  let payloads = (Wal.read (Persist.wal_path p 0)).Wal.records in
  let count = max 1 (List.length payloads) in
  header
    (Printf.sprintf
       "recovery: WAL append cost per sync policy at |C|=%d (%d records)" n
       (List.length payloads))
    [ "policy"; "total_ms"; "per_record_us" ];
  List.iter
    (fun pol ->
      let path = Filename.concat dir (Fmt.str "sync-%a.rxl" Wal.pp_sync_policy pol) in
      let _, t =
        time (fun () ->
            let w = Wal.open_writer ~sync:pol path in
            List.iter (Wal.append w) payloads;
            Wal.close w)
      in
      row
        [
          Fmt.str "%a" Wal.pp_sync_policy pol;
          ms t;
          Printf.sprintf "%.1f" (t *. 1e6 /. float_of_int count);
        ])
    [ Wal.Always; Wal.EveryN 64; Wal.Never ];
  rm_rf dir

let recovery () =
  recovery_vs_republish ();
  recovery_sync_overhead ()

(* ---------- Server: group-commit throughput under durable commits ---- *)

(* Closed-loop protocol clients against an in-process server on a
   Unix-domain socket, WAL at --sync always (every acknowledged update
   is durable). The two arms differ in one knob:

     batch=1  — the writer drains one job per batch: one fsync per
                acknowledged request (the no-group-commit baseline);
     batch=64 — group commit: every job drained together shares one
                fsync.

   A reader thread runs //course queries throughout; its count proves
   reads proceed while the writer's batch (and its fsync) is in
   flight. *)

let server_arm ~batch_cap ~n_writers ~per_writer =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "bench.sock" in
  let e = Registrar.engine () in
  let p = Persist.open_dir ~sync:Wal.Always dir in
  let srv =
    Server.start
      ~config:{ Server.default_config with queue_cap = 256; batch_cap }
      ~persist:p (Server.Unix_sock sock) e
  in
  let stop_readers = ref false in
  let reads = ref 0 in
  let reader =
    Thread.create
      (fun () ->
        let c = Client.connect sock in
        while not !stop_readers do
          (match Client.query c "//course" with
          | Ok _ -> incr reads
          | Error _ -> ());
          (* poll, don't busy-spin: the point is that reads complete
             while writer batches are in flight, not to saturate the
             runtime lock *)
          Thread.delay 0.002
        done;
        Client.close c)
      ()
  in
  let committed = ref 0 in
  let cm = Mutex.create () in
  (* start every trial from a settled heap: a major slice landing inside
     one arm but not the other would skew the ratio *)
  Gc.full_major ();
  let writer w () =
    let c = Client.connect sock in
    let mine = ref 0 in
    for r = 0 to per_writer - 1 do
      let cno = Printf.sprintf "B%dW%dR%d" batch_cap w r in
      let req =
        (* alternate insert / delete-of-previous so the view stays the
           same size throughout: per-commit apply cost is then constant
           and the arms differ only in how they pay for durability *)
        if r land 1 = 1 then
          Proto.Delete
            (Printf.sprintf "//course[cno=B%dW%dR%d]" batch_cap w (r - 1))
        else
          Proto.Insert
            {
              etype = "course";
              attr = Registrar.course_attr cno "Bench";
              path = "//course[cno=CS240]/prereq";
            }
      in
      match Client.update c [ req ] with
      | `Applied _ -> incr mine
      | `Overloaded | `Rejected _ -> ()
      | `Unavailable msg -> failwith ("server bench unavailable: " ^ msg)
      | `Error msg -> failwith ("server bench update: " ^ msg)
      | `Fenced (e, _) -> failwith (Printf.sprintf "server bench fenced: %d" e)
    done;
    Client.close c;
    Mutex.lock cm;
    committed := !committed + !mine;
    Mutex.unlock cm
  in
  let t0 = now () in
  let writers = List.init n_writers (fun w -> Thread.create (writer w) ()) in
  List.iter Thread.join writers;
  let wall = now () -. t0 in
  stop_readers := true;
  Thread.join reader;
  let syncs = Metrics.counter (Server.metrics srv) "wal_syncs" in
  Server.stop srv;
  Persist.close p;
  (match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> failwith ("server bench: engine inconsistent: " ^ m));
  rm_rf dir;
  (!committed, wall, syncs, !reads)

let server_bench () =
  let n_writers = 32 in
  let per_writer = by_scale ~full:40 ~quick:20 ~smoke:5 in
  let trials = by_scale ~full:5 ~quick:2 ~smoke:1 in
  header
    (Printf.sprintf
       "server: durable update throughput, %d closed-loop clients x %d \
        updates, WAL sync=always, 1 concurrent reader, median of %d trials"
       n_writers per_writer trials)
    [
      "batch_cap"; "trial"; "committed"; "wall_s"; "updates_per_s"; "fsyncs";
      "reads_during";
    ];
  (* one trial is ~1s of scheduler-sensitive thread interleaving: take
     the median of a few so the ratio reflects the architecture, not a
     background hiccup (or lucky streak) in either arm *)
  let run batch_cap =
    let rates = ref [] in
    for trial = 1 to trials do
      let committed, wall, syncs, reads =
        server_arm ~batch_cap ~n_writers ~per_writer
      in
      let rate = float_of_int committed /. wall in
      rates := rate :: !rates;
      row
        [
          string_of_int batch_cap;
          string_of_int trial;
          string_of_int committed;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" rate;
          string_of_int syncs;
          string_of_int reads;
        ]
    done;
    List.nth (List.sort compare !rates) (trials / 2)
  in
  let base = run 1 in
  let grouped = run 64 in
  row
    [
      "speedup"; "-"; Printf.sprintf "%.1fx" (grouped /. base); "-"; "-"; "-";
      "-";
    ]

(* ---------- chaos: what the failpoint subsystem costs when dormant ---- *)

module Failpoint = Rxv_fault.Failpoint

(* Every WAL append, fsync, and transport syscall now passes a failpoint
   check. The contract is that a production binary (nothing armed) pays
   one integer load per check — measured here directly, and then on the
   real update hot path (apply + WAL append) with the registry empty vs
   armed on a site those calls never reach. *)
let chaos () =
  Failpoint.disarm_all ();
  let iters = by_scale ~full:20_000_000 ~quick:5_000_000 ~smoke:500_000 in
  header
    (Printf.sprintf "chaos: cost of one failpoint check (%d iterations)" iters)
    [ "registry"; "ns_per_check" ];
  let per_check () =
    let t0 = now () in
    for _ = 1 to iters do
      ignore (Failpoint.check "wal.append")
    done;
    (now () -. t0) *. 1e9 /. float_of_int iters
  in
  row [ "empty"; Printf.sprintf "%.2f" (per_check ()) ];
  (* an armed registry makes every check take the locked lookup, even at
     sites that are not armed — the price of running chaos experiments *)
  Failpoint.arm ~site:"bench.unused" Failpoint.Eio;
  row [ "armed_elsewhere"; Printf.sprintf "%.2f" (per_check ()) ];
  Failpoint.set_enabled false;
  row [ "master_off"; Printf.sprintf "%.2f" (per_check ()) ];
  Failpoint.set_enabled true;
  Failpoint.disarm_all ();
  let n = by_scale ~full:10_000 ~quick:1_000 ~smoke:300 in
  let trials = by_scale ~full:5 ~quick:3 ~smoke:1 in
  header
    (Printf.sprintf
       "chaos: update hot-path overhead at |C|=%d, best of %d trials" n trials)
    [ "registry"; "groups"; "total_ms"; "per_group_us"; "overhead_pct" ];
  let arm_time () =
    (* fresh engine + WAL per trial so both arms do identical work *)
    let best = ref infinity and groups = ref 1 in
    for _ = 1 to trials do
      let d, e = engine_for n in
      let dir = fresh_dir () in
      let p = Persist.open_dir ~sync:Wal.Never dir in
      Persist.attach p e;
      let w = recovery_workload d e in
      Gc.full_major ();
      let _, t = time (fun () -> run_workload e w) in
      Persist.close p;
      rm_rf dir;
      groups := max 1 (List.length w);
      if t < !best then best := t
    done;
    (!groups, !best)
  in
  let base_g, base_t = arm_time () in
  row
    [
      "empty"; string_of_int base_g; ms base_t;
      Printf.sprintf "%.1f" (base_t *. 1e6 /. float_of_int base_g);
      "0.0";
    ];
  Failpoint.arm ~site:"bench.unused" Failpoint.Eio;
  let armed_g, armed_t = arm_time () in
  Failpoint.disarm_all ();
  row
    [
      "armed_elsewhere"; string_of_int armed_g; ms armed_t;
      Printf.sprintf "%.1f" (armed_t *. 1e6 /. float_of_int armed_g);
      Printf.sprintf "%.1f" (100. *. (armed_t -. base_t) /. base_t);
    ]

(* ---------- xpath_passes: cold evaluation per plan ---------- *)

(* [p] with every value filter [cid = V] replaced by [sub/c] *)
let rec no_anchor (p : Ast.path) =
  let rec filter = function
    | Ast.Eq (Ast.Label "cid", _) ->
        Ast.Exists (Ast.Seq (Ast.Label "sub", Ast.Label "c"))
    | Ast.Eq (q, s) -> Ast.Eq (no_anchor q, s)
    | Ast.Exists q -> Ast.Exists (no_anchor q)
    | Ast.Label_is _ as f -> f
    | Ast.And (a, b) -> Ast.And (filter a, filter b)
    | Ast.Or (a, b) -> Ast.Or (filter a, filter b)
    | Ast.Not a -> Ast.Not (filter a)
  in
  match p with
  | Ast.Seq (a, b) -> Ast.Seq (no_anchor a, no_anchor b)
  | Ast.Where (a, q) -> Ast.Where (no_anchor a, filter q)
  | Ast.Self | Ast.Label _ | Ast.Wildcard | Ast.Desc_or_self -> p

(* Cold Dag_eval of the delete plans of each class, as a write runs
   them on a cache miss: new tables, then the top-down pass, which
   computes the cells it reads through the engine's reader (value
   filters anchored at their cid node). Each plan is evaluated [reps]
   times, each time on new tables; eval_ms is the median over all runs
   of the class, cells the median per plan. The no_anchor class is the
   W1 paths with each [cid = V] replaced by [sub/c]: its // step reads a
   label row, one pass over L, and its filters compute cells at every c
   below the root. *)
let xpath_passes () =
  let plans = 8 and reps = 5 in
  header
    (Printf.sprintf
       "xpath_passes: cold Dag_eval per delete plan (median of %d plans x \
        %d runs per class)"
       plans reps)
    [ "|C|"; "class"; "eval_ms"; "cells" ];
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  List.iter
    (fun n ->
      let _, e = engine_for n in
      let src = Engine.live_src e in
      let deletes cls =
        List.map Xupdate.path_of
          (Updates.deletions e.Engine.store cls ~count:plans ~seed:7)
      in
      List.iter
        (fun (name, paths) ->
          let runs =
            List.map
              (fun path ->
                let plan = Plan.compile path in
                List.init reps (fun _ ->
                    let tb = Dag_eval.create_tables plan in
                    let _, t =
                      time (fun () -> Dag_eval.top_down_src src plan tb)
                    in
                    (t, Dag_eval.cells_computed tb)))
              paths
          in
          row
            [
              string_of_int n;
              name;
              Printf.sprintf "%.3f"
                (1000. *. median (List.concat_map (List.map fst) runs));
              string_of_int
                (median (List.map (fun r -> snd (List.hd r)) runs));
            ])
        [
          ("W1", deletes Updates.W1);
          ("W2", deletes Updates.W2);
          ("W3", deletes Updates.W3);
          ("no_anchor", List.map no_anchor (deletes Updates.W1));
        ])
    (sizes ())

(* ---------- translate: insertion translation, cold vs cached ---------- *)

(* minimum cold vs cached translate speedup across sizes;
   --check-translate-speedup compares against it after all requested
   experiments ran *)
let min_translate_speedup = ref infinity

(* per size, the cached arm's skeleton hits and op count; the same gate
   fails if an arm hit fewer than nops - 1 (a healthy arm misses only
   its first op): at |C| = 300 retained indexes and gen_A rows alone
   keep the speedup above 5x with no skeleton hit at all *)
let translate_skel_hits = ref []

(* Two arms replay identical W2 insertion workloads on identical
   engines; they differ only in what survives between operations:
   - cold: the engine's translation cache is cleared and every secondary
     relation index dropped before each op — the pre-cache behavior,
     paying skeleton construction, gen_A materialization and index
     builds every time;
   - cached: nothing is dropped — steady-state production behavior,
     reusing structural skeletons, gen_A row sets and indexes.
   Each run of an arm replays its ops back to back on a fresh engine,
   after a full major GC so that garbage left by earlier work (the other
   arm, earlier experiments) is not charged to it. Each arm runs twice,
   in the order cold, cached, cached, cold, and is reported as the mean
   of its two runs, so host-speed drift over the experiment hits both
   arms alike. The ops of one arm stay back to back: interleaving the
   arms op by op left every short cached op to run in the CPU caches
   and GC debt of a cold one, and held the ratio at |C| = 300 to
   ~5x. *)
let translate_bench () =
  (* smoke keeps a high op count: the cached arm totals ~2ms at |C|=300,
     so the speedup ratio needs enough ops to amortize scheduler noise
     when runtest runs this concurrently with the test suites *)
  let nops = by_scale ~full:30 ~quick:12 ~smoke:30 in
  header
    (Printf.sprintf
       "translate: insertion ΔV→ΔR translation, cold vs cached (%d W2 \
        insertions, mean of two runs per arm)"
       nops)
    [ "|C|"; "cold_ms"; "cached_ms"; "cold/cached"; "skel_hits" ];
  List.iter
    (fun n ->
      (* one run of an arm: its translation time summed over the ops,
         and its engine's stats after them *)
      let arm prep =
        let d, e = engine_for n in
        let us =
          Updates.insertions d e.Engine.store Updates.W2 ~count:nops ~seed:7 ()
        in
        Gc.full_major ();
        let total = ref 0. in
        List.iter
          (fun u ->
            prep e;
            match Engine.apply ~policy:`Proceed e u with
            | Ok r -> total := !total +. r.Engine.timings.Engine.t_translate
            | Error _ -> ())
          us;
        (!total, Engine.stats e)
      in
      let drop_relation_indexes e =
        Database.iter_relations
          (fun _ r -> Relation.drop_indexes r)
          e.Engine.db
      in
      let cold () =
        fst
          (arm (fun e ->
               Rxv_core.Vinsert.clear_cache e.Engine.sat;
               drop_relation_indexes e))
      in
      let cached () = arm (fun _ -> ()) in
      let c1 = cold () in
      let h1, _ = cached () in
      let h2, st = cached () in
      let c2 = cold () in
      let cold = (c1 +. c2) /. 2. and cached = (h1 +. h2) /. 2. in
      let speedup = cold /. max cached 1e-9 in
      min_translate_speedup := min !min_translate_speedup speedup;
      translate_skel_hits :=
        (st.Engine.sat_skeleton_hits, nops) :: !translate_skel_hits;
      row
        [
          string_of_int n; ms cold; ms cached;
          Printf.sprintf "%.1fx" speedup;
          string_of_int st.Engine.sat_skeleton_hits;
        ])
    (by_scale
       ~full:[ 10_000; 100_000 ]
       ~quick:[ 1_000; 3_000 ] ~smoke:[ 300 ])

(* ---------- snapshot_reads: MVCC reader throughput under writes ------ *)

(* One trial: a saturating writer swarm drives the batcher — the
   server's single-writer loop, one exclusive section per batch — while
   [n_readers] threads query //course on the batcher-published MVCC
   snapshot, taking no lock at all, as fast as they can for [duration]
   seconds. Each writer job is an atomic group of [group] updates (the
   batcher's unit of commit), so the exclusive sections do realistic
   amounts of view-maintenance work rather than degenerating into
   uncontended microsecond blips. *)
let snapshot_reads_trial ~n_readers ~n_writers ~group ~duration =
  let e = Registrar.engine () in
  let lock = Mutex.create () in
  let published = ref (Engine.Snapshot.capture e) in
  let batcher =
    Batcher.create ~queue_cap:512 ~batch_cap:64 ~lock
      ~publish:(fun () -> published := Engine.Snapshot.capture e)
      e
  in
  let path = Parser.parse "//course" in
  let ins_path = Parser.parse "//course[cno=CS240]/prereq" in
  let stop = ref false in
  let committed = ref 0 in
  let cm = Mutex.create () in
  let writer w () =
    let mine = ref 0 in
    let r = ref 0 in
    let cno b k = Printf.sprintf "RW%dB%dK%d" w b k in
    (* pipelined submission: keep the batcher's queue full so write
       batches run back to back (a saturating writer), awaiting acks in
       a sliding window instead of round-tripping per group *)
    let outstanding = Queue.create () in
    let drain_one () =
      match Batcher.await (Queue.pop outstanding) with
      | Batcher.Committed _ -> incr mine
      | _ -> ()
    in
    while not !stop do
      let i = !r in
      incr r;
      (* alternate a group of inserts with a group deleting the previous
         group's courses, so the view stays the same size and per-group
         apply cost is steady *)
      let us =
        if i land 1 = 0 then
          List.init group (fun k ->
              Xupdate.Insert
                {
                  etype = "course";
                  attr = Registrar.course_attr (cno i k) "Bench";
                  path = ins_path;
                })
        else
          List.init group (fun k ->
              Xupdate.Delete
                (Parser.parse
                   (Printf.sprintf "//course[cno=%s]" (cno (i - 1) k))))
      in
      let accepted = ref false in
      while (not !accepted) && not !stop do
        match Batcher.submit batcher ~policy:`Proceed us with
        | `Job j ->
            Queue.push j outstanding;
            accepted := true
        | `Overloaded ->
            if Queue.is_empty outstanding then Thread.yield ()
            else drain_one ()
      done;
      if Queue.length outstanding > 32 then drain_one ()
    done;
    while not (Queue.is_empty outstanding) do
      drain_one ()
    done;
    Mutex.lock cm;
    committed := !committed + !mine;
    Mutex.unlock cm
  in
  let reads = ref 0 in
  let rm = Mutex.create () in
  let reader () =
    let mine = ref 0 in
    let t_end = now () +. duration in
    while now () < t_end do
      ignore (Engine.Snapshot.query !published path);
      incr mine
    done;
    Mutex.lock rm;
    reads := !reads + !mine;
    Mutex.unlock rm
  in
  Gc.full_major ();
  let writers = List.init n_writers (fun w -> Thread.create (writer w) ()) in
  let readers = List.init n_readers (fun _ -> Thread.create reader ()) in
  List.iter Thread.join readers;
  stop := true;
  List.iter Thread.join writers;
  Batcher.stop batcher;
  (match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> failwith ("snapshot_reads: engine inconsistent: " ^ m));
  (!reads, !committed)

let snapshot_reads () =
  let n_readers = 4 and n_writers = 4 in
  let group = by_scale ~full:24 ~quick:16 ~smoke:16 in
  let duration = by_scale ~full:1.5 ~quick:0.6 ~smoke:0.5 in
  let trials = by_scale ~full:3 ~quick:2 ~smoke:2 in
  header
    (Printf.sprintf
       "snapshot_reads: snapshot reader throughput under a saturating \
        write swarm, %d readers x %d writers x %d updates/group, %.2fs \
        per trial, %d trials"
       n_readers n_writers group duration trials)
    [ "trial"; "reads"; "reads_per_s"; "committed" ];
  for trial = 1 to trials do
    let reads, comm =
      snapshot_reads_trial ~n_readers ~n_writers ~group ~duration
    in
    row
      [
        string_of_int trial;
        string_of_int reads;
        Printf.sprintf "%.0f" (float_of_int reads /. duration);
        string_of_int comm;
      ]
  done

(* ---------- replication: follower catch-up and read scale-out -------- *)

(* aggregate follower read capacity scaling from 1 to 2 followers;
   --check-replica-scale compares against it after all requested
   experiments ran *)
let min_replica_scale = ref infinity

(* One topology: a durable primary plus [n_followers] WAL-streaming
   replica servers, all in-process over Unix-domain sockets. The writer
   commits [commits] single-insert groups and we time the slowest
   follower's convergence (catch-up). The topology stays up so that its
   followers' read rates can be sampled together with every other
   topology's ({!follower_read_rates}). *)
type topology = {
  dir : string;
  persist : Persist.t;
  primary : Server.t;
  followers : (string * Server.t * Follower.t) list;
  commit_rate : float;
  catchup : float;
}

let topology_up ~n_followers ~commits =
  let dir = fresh_dir () in
  let p = Persist.open_dir dir in
  let e =
    match Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db with
    | Ok (e, _) -> e
    | Error m -> failwith ("replication: recovery: " ^ m)
  in
  let psock = Filename.concat dir "p.sock" in
  let psrv = Server.start ~persist:p (Server.Unix_sock psock) e in
  let mk_follower i =
    let rsock = Filename.concat dir (Printf.sprintf "r%d.sock" i) in
    let rsrv =
      Server.start
        ~config:{ Server.default_config with Server.role = `Replica }
        (Server.Unix_sock rsock) (Registrar.engine ())
    in
    let f =
      Follower.start ~wait_ms:50
        ~name:(Printf.sprintf "r%d" i)
        ~primary:(Server.Unix_sock psock) ~init:Registrar.sample_db
        ~seed:20070415 rsrv
    in
    (rsock, rsrv, f)
  in
  let followers = List.init n_followers mk_follower in
  let c = Client.connect psock in
  let last = ref 0 in
  let t0 = now () in
  for k = 1 to commits do
    match
      Client.update c
        [
          Proto.Insert
            {
              etype = "course";
              attr =
                Registrar.course_attr (Printf.sprintf "BR%06d" k) "Bench";
              path = "//course[cno=CS240]/prereq";
            };
        ]
    with
    | `Applied (seq, _) -> last := seq
    | _ -> failwith "replication: write failed"
  done;
  let commit_rate = float_of_int commits /. (now () -. t0) in
  Client.close c;
  let t1 = now () in
  let deadline = t1 +. 60. in
  List.iter
    (fun (_, _, f) ->
      while Follower.after f < !last && now () < deadline do
        Thread.delay 0.002
      done;
      if Follower.after f < !last then
        failwith "replication: follower did not converge")
    followers;
  {
    dir;
    persist = p;
    primary = psrv;
    followers;
    commit_rate;
    catchup = now () -. t1;
  }

let topology_down t =
  List.iter
    (fun (_, rsrv, f) ->
      Follower.stop f;
      Server.stop rsrv)
    t.followers;
  Server.stop t.primary;
  Persist.close t.persist;
  rm_rf t.dir

(* Read service rate of each follower socket in [socks]: the median of
   [trials] timed windows of [duration] s, each window reading with a
   dedicated client, after a full major GC so leftover garbage is not
   charged to whichever follower comes next. The bench host may have a
   single core, so followers are sampled one at a time and their rates
   summed into an aggregate capacity (the quantity that grows with
   replica count when each replica owns a core or machine); measuring
   them concurrently here would benchmark the scheduler. Windows go
   round-robin over every follower of every topology, with the starting
   follower rotated each round, so host-speed drift over the run hits
   all of them alike instead of deciding the ratio between topologies. *)
let follower_read_rates socks ~duration ~trials =
  let n = Array.length socks in
  let samples = Array.make n [] in
  for round = 0 to trials - 1 do
    for j = 0 to n - 1 do
      let i = (round + j) mod n in
      Gc.full_major ();
      let rc = Client.connect socks.(i) in
      let reads = ref 0 in
      let t_end = now () +. duration in
      while now () < t_end do
        match Client.query rc "//course" with
        | Ok _ -> incr reads
        | Error m -> failwith ("replication: replica read: " ^ m)
      done;
      Client.close rc;
      samples.(i) <- (float_of_int !reads /. duration) :: samples.(i)
    done
  done;
  Array.map (fun xs -> List.nth (List.sort compare xs) (trials / 2)) samples

let replication () =
  let commits = by_scale ~full:400 ~quick:120 ~smoke:40 in
  let duration = by_scale ~full:1.0 ~quick:0.5 ~smoke:0.3 in
  let trials = 5 in
  let counts = by_scale ~full:[ 1; 2; 4 ] ~quick:[ 1; 2; 4 ] ~smoke:[ 1; 2 ] in
  header
    (Printf.sprintf
       "replication: %d commits streamed to each topology; catch-up to \
        convergence; then, with every topology up, read sampling per \
        follower, median of %d x %.2fs windows taken round-robin over all \
        followers (sequential per-follower capacity, summed as aggregate)"
       commits trials duration)
    [ "followers"; "commit_rate"; "catchup_s"; "aggregate_reads_s";
      "per_follower" ];
  let topos =
    List.map (fun k -> topology_up ~n_followers:k ~commits) counts
  in
  let socks =
    Array.of_list
      (List.concat_map
         (fun t -> List.map (fun (rsock, _, _) -> rsock) t.followers)
         topos)
  in
  let rates = follower_read_rates socks ~duration ~trials in
  List.iter topology_down topos;
  let base = ref None and next = ref 0 in
  List.iter
    (fun t ->
      let k = List.length t.followers in
      let rs = List.init k (fun i -> rates.(!next + i)) in
      next := !next + k;
      let agg = List.fold_left ( +. ) 0. rs in
      if !base = None then base := Some agg;
      row
        [
          string_of_int k;
          Printf.sprintf "%.0f" t.commit_rate;
          Printf.sprintf "%.3f" t.catchup;
          Printf.sprintf "%.0f" agg;
          String.concat "+" (List.map (fun r -> Printf.sprintf "%.0f" r) rs);
        ];
      if k = 2 then
        match !base with
        | Some b when b > 0. ->
            let ratio = agg /. b in
            min_replica_scale := min !min_replica_scale ratio;
            row [ "scale_1to2"; "-"; "-"; Printf.sprintf "%.2fx" ratio; "-" ]
        | _ -> ())
    topos

(* ---------- failover: write-unavailability window (MTTR) ------------- *)

(* worst MTTR over all measured view sizes; --check-failover-mttr S
   compares against it after all requested experiments ran *)
let max_failover_mttr = ref neg_infinity

(* Operator-driven promotion under routed load: a durable primary and a
   durable standby over a registrar view bulk-loaded to |C| courses, a
   router committing through the pair, then the primary is stopped, the
   standby promoted, and the SAME router's next write must land on the
   new primary. window_ms is what that client experiences — from the
   instant the primary stops to the first acknowledgement under the new
   epoch. Because the probe is a real write, the window necessarily
   contains one full write service (at |C| = 100K a single-row write
   costs ~1 s in ΔV→ΔR translation alone, failover or not), so MTTR —
   the unavailability failover *added* — is the window net of the
   probe's steady-state service time, measured in the same run as the
   median of identical writes on the new primary (write_ms);
   promote_ms isolates the promotion step (boundary capture, durable
   epoch record, batcher re-seat) inside the window. *)
let failover_bench () =
  let module Resilient = Rxv_server.Resilient in
  let module Database = Rxv_relational.Database in
  let module Value = Rxv_relational.Value in
  let sizes =
    by_scale ~full:[ 10_000; 100_000 ] ~quick:[ 3_000 ] ~smoke:[ 300 ]
  in
  (* warm commits establish replication, warm the router and leave the
     insert path's eval tables one-mutation-stale (so steady-state
     writes partially revalidate instead of re-running the full DP);
     the first commit still pays one cold eval at |C|, so keep the
     count modest — MTTR does not depend on it *)
  let commits = by_scale ~full:60 ~quick:60 ~smoke:20 in
  header
    (Printf.sprintf
       "failover: operator promotion under routed load (%d warm commits); \
        window = primary stop -> first ack on the new primary; MTTR = \
        window net of the probe's steady-state service time (write_ms, \
        the in-run median of identical writes on the new primary)"
       commits)
    [
      "courses";
      "commit_rate";
      "promote_ms";
      "write_ms";
      "window_ms";
      "mttr_ms";
      "boundary";
      "epoch";
    ];
  List.iter
    (fun n ->
      let init () =
        let db = Registrar.sample_db () in
        for k = 1 to n do
          Database.insert db "course"
            [|
              Value.str (Printf.sprintf "B%06d" k);
              Value.str "Bulk";
              Value.str "CS";
            |]
        done;
        db
      in
      let open_node ~role dir =
        let p = Persist.open_dir dir in
        match Persist.recover p (Registrar.atg ()) ~init with
        | Error m -> failwith ("failover: recovery: " ^ m)
        | Ok (e, _) ->
            let config = { Server.default_config with Server.role } in
            let sock = Filename.concat dir "node.sock" in
            (p, Server.start ~config ~persist:p (Server.Unix_sock sock) e, sock)
      in
      let dir1 = fresh_dir () and dir2 = fresh_dir () in
      let p1, psrv, psock = open_node ~role:`Primary dir1 in
      let p2, ssrv, ssock = open_node ~role:`Replica dir2 in
      let f =
        Follower.start ~wait_ms:20 ~persist:p2 ~name:"standby"
          ~primary:(Server.Unix_sock psock) ~init ~seed:20070415 ssrv
      in
      let router =
        Resilient.Router.create ~timeout:1.0 ~wait_ms:5000
          ~failover_timeout:30.
          ~primary:(Resilient.Unix_path psock)
          [ Resilient.Unix_path ssock ]
      in
      let write k =
        match
          Resilient.Router.update router
            [
              Proto.Insert
                {
                  etype = "course";
                  attr =
                    Registrar.course_attr (Printf.sprintf "FV%06d" k) "Bench";
                  path = "//course[cno=CS240]/prereq";
                };
            ]
        with
        | `Applied (seq, _) -> seq
        | `Rejected (_, m) -> failwith ("failover: rejected: " ^ m)
        | `Error m -> failwith ("failover: write failed: " ^ m)
      in
      let t0 = now () in
      let last = ref 0 in
      for k = 1 to commits do
        last := write k
      done;
      let commit_rate = float_of_int commits /. (now () -. t0) in
      (* promote only a caught-up standby: the operator's rule, and the
         precondition for a loss-free window measurement *)
      let deadline = now () +. 60. in
      while Follower.after f < !last && now () < deadline do
        Thread.delay 0.002
      done;
      if Follower.after f < !last then
        failwith "failover: standby did not converge before the kill";
      (* a production standby serves reads continuously; one pinned
         read of the probe's target path at the last commit models that.
         The probe itself is a single-row delete of a sentinel course:
         its target eval starts from the course's cno text node (an
         anchored value filter, a few cells at any |C| — see Dag_eval)
         and its ΔR translation is provenance-driven (no SAT skeleton to
         build cold), so MTTR measures the failover window itself, not
         a cold O(|C|) evaluation or a cold translation at |C| *)
      let probe_path = "//course[cno=FV000001]" in
      (let rc = Client.connect ssock in
       (match Client.query_at rc ~min_seq:!last ~wait_ms:30_000 probe_path with
       | Ok _ -> ()
       | Error (`Behind m) | Error (`Err m) ->
           failwith ("failover: standby warm read: " ^ m));
       Client.close rc);
      let t_kill = now () in
      Server.stop psrv;
      Persist.close p1;
      let t_promote = now () in
      let epoch, boundary = Server.promote ssrv in
      let promote_s = now () -. t_promote in
      (match Resilient.Router.update router [ Proto.Delete probe_path ] with
      | `Applied _ -> ()
      | `Rejected (_, m) -> failwith ("failover: probe rejected: " ^ m)
      | `Error m -> failwith ("failover: probe failed: " ^ m));
      let window = now () -. t_kill in
      (* the probe is a real write, so the window necessarily contains
         one full write service (eval + ΔV→ΔR translation + commit) —
         time that same op shape in steady state on the new primary and
         net it out: unavailability is what failover *added*, not what
         a single-row write costs at |C| anyway *)
      let write_s =
        let rc = Client.connect ssock in
        let samples =
          List.filter_map
            (fun k ->
              let p = Printf.sprintf "//course[cno=FV%06d]" k in
              match Client.query rc p with
              | Error _ -> None
              | Ok _ -> (
                  let t0 = now () in
                  match Client.update rc [ Proto.Delete p ] with
                  | `Applied _ -> Some (now () -. t0)
                  | _ -> None))
            [ 2; 3; 4 ]
        in
        Client.close rc;
        match List.sort compare samples with
        | [] -> 0.
        | l -> List.nth l (List.length l / 2)
      in
      let mttr = Float.max 0. (window -. write_s) in
      max_failover_mttr := Float.max !max_failover_mttr mttr;
      row
        [
          string_of_int n;
          Printf.sprintf "%.0f" commit_rate;
          ms promote_s;
          ms write_s;
          ms window;
          ms mttr;
          string_of_int boundary;
          string_of_int epoch;
        ];
      Resilient.Router.close router;
      Server.stop ssrv;
      Persist.close p2;
      rm_rf dir1;
      rm_rf dir2)
    sizes

(* ---------- Bechamel micro-suite: one Test.make per experiment ------- *)

let bechamel_suite () =
  let open Bechamel in
  let n = 3_000 in
  let d = dataset n in
  let e = Engine.create (Synth.atg ()) d.Synth.db in
  let del_path =
    match Updates.deletions e.Engine.store Updates.W1 ~count:1 ~seed:1 with
    | [ Xupdate.Delete p ] -> p
    | _ -> Ast.Seq (Ast.Desc_or_self, Ast.Label "c")
  in
  let test_fig10b =
    Test.make ~name:"fig10b_stats"
      (Staged.stage (fun () -> ignore (Engine.stats e)))
  in
  let test_fig11a =
    Test.make ~name:"fig11a_w1_xpath_eval"
      (Staged.stage (fun () -> ignore (Engine.query e del_path)))
  in
  let test_fig11d =
    Test.make ~name:"fig11d_insert_target_eval"
      (Staged.stage (fun () ->
           match
             Updates.insertions d e.Engine.store Updates.W2 ~count:1 ~seed:9 ()
           with
           | [ Xupdate.Insert { path; _ } ] -> ignore (Engine.query e path)
           | _ -> ()))
  in
  let test_table1 =
    Test.make ~name:"table1_L_M_recompute"
      (Staged.stage (fun () ->
           let l = Topo.of_store e.Engine.store in
           ignore (Reach.compute e.Engine.store l)))
  in
  let tests =
    Test.make_grouped ~name:"rxv"
      [ test_fig10b; test_fig11a; test_fig11d; test_table1 ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-36s %14.1f ns/run\n%!" name est
      | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
    results

(* ---------- driver ---------- *)

let experiments : (string * (unit -> unit)) list =
  [
    ("fig10b", fig10b);
    ("fig11a", fun () -> fig11_deletions "fig11a" Updates.W1);
    ("fig11b", fun () -> fig11_deletions "fig11b" Updates.W2);
    ("fig11c", fun () -> fig11_deletions "fig11c" Updates.W3);
    ("fig11d", fun () -> fig11_insertions "fig11d" Updates.W1);
    ("fig11e", fun () -> fig11_insertions "fig11e" Updates.W2);
    ("fig11f", fun () -> fig11_insertions "fig11f" Updates.W3);
    ("fig11g", fig11g);
    ("fig11h", fig11h);
    ("table1", table1);
    ("transactions", transactions);
    ("recovery", recovery);
    ("server", server_bench);
    ("ablations", ablations);
    ("chaos", chaos);
    ("xpath_passes", xpath_passes);
    ("translate", translate_bench);
    ("snapshot_reads", snapshot_reads);
    ("replication", replication);
    ("failover", failover_bench);
    ("bechamel", bechamel_suite);
  ]

(* "all" = every table/figure experiment (bechamel prints its own format
   and is only run when asked for by name) *)
let all_names =
  List.filter (fun n -> n <> "bechamel") (List.map fst experiments)

let usage () =
  prerr_endline
    "usage: main.exe [--quick|--smoke] [--json FILE] \
     [--check-replica-scale R] [--check-translate-speedup R] \
     [--check-failover-mttr SECONDS] \
     [all|fig10b|fig11a..fig11h|table1|transactions|recovery|server|\
     ablations|chaos|xpath_passes|translate|snapshot_reads|\
     replication|failover|bechamel]...";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let json_path = ref None in
  let replica_scale = ref None in
  let translate_speedup = ref None in
  let failover_mttr = ref None in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        scale := `Quick;
        parse rest
    | "--smoke" :: rest ->
        scale := `Smoke;
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | [ "--json" ] -> usage ()
    | "--check-replica-scale" :: r :: rest -> (
        match float_of_string_opt r with
        | Some f when f > 0. ->
            replica_scale := Some f;
            parse rest
        | _ -> usage ())
    | [ "--check-replica-scale" ] -> usage ()
    | "--check-translate-speedup" :: r :: rest -> (
        match float_of_string_opt r with
        | Some f when f > 0. ->
            translate_speedup := Some f;
            parse rest
        | _ -> usage ())
    | [ "--check-translate-speedup" ] -> usage ()
    | "--check-failover-mttr" :: r :: rest -> (
        match float_of_string_opt r with
        | Some s when s > 0. ->
            failover_mttr := Some s;
            parse rest
        | _ -> usage ())
    | [ "--check-failover-mttr" ] -> usage ()
    | "all" :: rest ->
        names := !names @ all_names;
        parse rest
    | name :: rest when List.mem_assoc name experiments ->
        names := !names @ [ name ];
        parse rest
    | _ -> usage ()
  in
  parse args;
  let names = if !names = [] then all_names else !names in
  List.iter
    (fun name -> run_experiment name (List.assoc name experiments))
    names;
  Option.iter write_json !json_path;
  (match !replica_scale with
  | None -> ()
  | Some r when !min_replica_scale = infinity ->
      Printf.eprintf
        "--check-replica-scale %.1f given but replication did not run\n%!" r;
      exit 1
  | Some r when !min_replica_scale < r ->
      Printf.eprintf
        "replica scale check FAILED: aggregate follower read capacity \
         %.2fx < required %.1fx going 1 -> 2 followers\n%!"
        !min_replica_scale r;
      exit 1
  | Some r ->
      Printf.printf
        "replica scale check ok: aggregate follower read capacity %.2fx \
         >= %.1fx going 1 -> 2 followers\n%!"
        !min_replica_scale r);
  (match !failover_mttr with
  | None -> ()
  | Some s when !max_failover_mttr = neg_infinity ->
      Printf.eprintf
        "--check-failover-mttr %.2f given but failover did not run\n%!" s;
      exit 1
  | Some s when !max_failover_mttr > s ->
      Printf.eprintf
        "failover MTTR check FAILED: worst net write-unavailability \
         (window minus steady-state write service) %.0f ms > allowed \
         %.0f ms\n%!"
        (!max_failover_mttr *. 1000.) (s *. 1000.);
      exit 1
  | Some s ->
      Printf.printf
        "failover MTTR check ok: worst net write-unavailability (window \
         minus steady-state write service) %.0f ms <= %.0f ms\n%!"
        (!max_failover_mttr *. 1000.) (s *. 1000.));
  (match !translate_speedup with
  | None -> ()
  | Some r when !min_translate_speedup = infinity ->
      Printf.eprintf
        "--check-translate-speedup %.1f given but translate did not run\n%!" r;
      exit 1
  | Some r when !min_translate_speedup < r ->
      Printf.eprintf
        "translate cache check FAILED: cold/cached translation speedup \
         %.1fx < required %.1fx\n%!"
        !min_translate_speedup r;
      exit 1
  | Some r -> (
      match
        List.find_opt (fun (hits, nops) -> hits < nops - 1) !translate_skel_hits
      with
      | Some (hits, nops) ->
          Printf.eprintf
            "translate cache check FAILED: the cached arm hit %d skeletons \
             in %d ops (< %d)\n%!"
            hits nops (nops - 1);
          exit 1
      | None ->
          Printf.printf
            "translate cache check ok: cold/cached translation speedup \
             %.1fx >= %.1fx, skeleton hits >= ops - 1\n%!"
            !min_translate_speedup r))
