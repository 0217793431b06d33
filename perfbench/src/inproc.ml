(* The two in-process workloads: fig11_mix (XML view updates through
   [Engine.apply_group]) and replica_apply (ΔR batches through
   [Base_update.apply], the function WAL replay and followers call).
   Both run at |C| = 3K, without a WAL, and publish a snapshot after
   every update as the server's batcher does. *)

open Common
module Snapshot = Engine.Snapshot
module Xupdate = Rxv_core.Xupdate
module Base_update = Rxv_core.Base_update
module Group_update = Rxv_relational.Group_update
module Store = Rxv_dag.Store
module Rng = Rxv_sat.Rng

let n = 3000

(* what the engine reported for one update of the timed loop (traced
   runs only); times in ms *)
type row = {
  r_op : int;
  insert : bool;
  t_eval : float;
  t_translate : float;
  t_maintain : float;
  encode_ms : float;
  solve_ms : float;
  clauses : int;
  delta_r : int;
  selected : int;
  affected : int;
}

let rows : row list ref = ref []
let query_sizes : int list ref = ref []

let keep_row r = if !Trace.enabled && !Trace.in_run then rows := r :: !rows

type st = {
  e : Engine.t;
  d : Synth.dataset;
  mutable snap : Snapshot.t;
  mutable next_fresh : int;
}

let fresh st =
  let k = Synth.fresh_key st.d st.next_fresh in
  st.next_fresh <- st.next_fresh + 1;
  k

let start () =
  let d = Trace.span "setup.generate" (fun () -> dataset ~n) in
  let e =
    Trace.span "setup.engine_create" (fun () ->
        Engine.create ~seed:data_seed (Synth.atg ()) d.Synth.db)
  in
  { e; d; snap = Snapshot.capture e; next_fresh = 0 }

(* one snapshot read; [check] sees how many nodes it selected *)
let query st kind path ~check =
  incr attempted;
  Trace.next_op ();
  let res, ms =
    Trace.timed "query" (fun () ->
        Trace.span "snapshot.query" (fun () -> Snapshot.query st.snap path))
  in
  let got = List.length res.Rxv_core.Dag_eval.selected in
  check got;
  if !Trace.in_run then query_sizes := got :: !query_sizes;
  record_query kind ms

let expect kind path n got =
  if got <> n then
    fail "%s %s selected %d nodes, expected %d" kind (Ast.to_string path) got n

(* {2 fig11_mix} *)

type pair =
  | Relink of { cls : Updates.cls; del : Xupdate.t; ins : Xupdate.t }
      (** delete an existing sub→c edge, then insert the same child back *)
  | Fresh of { cls : Updates.cls; path : Ast.path }
      (** insert a fresh key under [path], then delete it *)

(* pairs of each kind per class and cycle: 3 classes x 2 kinds x 48
   pairs = 576 updates per cycle, and nearly as many distinct XPath
   plans, so the working set far exceeds the 64-plan Eval_cache. With 24
   pairs the scaled figures of five seeds spread by up to 25%; with 48,
   by at most 5% (on a calmer host). *)
let pairs_per_kind = 48

(* the warm-up replays the cycle's last pairs: they use more distinct
   plans than the cache holds, so the cache enters the timed loop in the
   state every cycle leaves it in *)
let warmup_pairs = 48

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let fig11_cycle ~seed =
  let d = dataset ~n in
  let e = Engine.create ~seed:data_seed (Synth.atg ()) d.Synth.db in
  let store = e.Engine.store in
  let h = Database.relation d.Synth.db "H" in
  let children pk = List.length (Relation.select_eq h 0 (Value.Int pk)) in
  let shared ck =
    match Store.find_id store "c" (Synth.c_attr ck) with
    | Some v -> Store.in_degree store v >= 2
    | None -> false
  in
  let k = pairs_per_kind in
  let per_class i cls =
    let s = (seed * 97) + i in
    let dels = Updates.deletions store cls ~count:(8 * k) ~seed:s in
    let rels = Updates.insertions d store cls ~count:(8 * k) ~seed:s ~fresh:false () in
    (* Re-link only children with another parent: the delete then
       collects no subtree and the re-link publishes none. Re-linking a
       single-parent subtree took ~90 ms against ~15 ms for the rest,
       and how many of those a seed drew moved the p90 by ±20%. A W3
       parent must also keep a sub/c child while one edge is away, or
       the re-link's [sub/c] filter selects nothing. *)
    let relinks =
      List.filter_map
        (fun (del, ins) ->
          match cid_keys (Xupdate.path_of del) with
          | [ pk; ck ] when shared ck && (cls <> Updates.W3 || children pk >= 2) ->
              Some (Relink { cls; del; ins })
          | [ _; _ ] -> None
          | _ -> fail "unexpected delete path %s" (Ast.to_string (Xupdate.path_of del)))
        (List.combine dels rels)
    in
    let fresh =
      List.map
        (fun u -> Fresh { cls; path = Xupdate.path_of u })
        (Updates.insertions d store cls ~count:k ~seed:(s + 1000) ())
    in
    if List.length relinks < k || List.length fresh < k then
      fail "too few %s candidates" (Updates.cls_name cls);
    (take k relinks, fresh)
  in
  let per = List.mapi per_class [ Updates.W1; Updates.W2; Updates.W3 ] in
  (* round j: the j-th re-link of every class, then the j-th fresh pair *)
  List.init k (fun j ->
      List.map (fun (r, _) -> List.nth r j) per
      @ List.map (fun (_, f) -> List.nth f j) per)
  |> List.concat |> Array.of_list

let engine_update st kind u =
  incr attempted;
  Trace.next_op ();
  let (res, snap), ms =
    Trace.timed "update" (fun () ->
        let res =
          Trace.span "engine.apply_group" (fun () -> Engine.apply_group st.e [ u ])
        in
        (res, Trace.span "snapshot.capture" (fun () -> Snapshot.capture st.e)))
  in
  st.snap <- snap;
  match res with
  | Ok [ r ] when r.Engine.selected <> [] && r.Engine.delta_r <> [] ->
      record_update kind ms;
      let tm = r.Engine.timings in
      keep_row
        {
          r_op = !Trace.op;
          insert = (match u with Xupdate.Insert _ -> true | Xupdate.Delete _ -> false);
          t_eval = tm.Engine.t_eval *. 1e3;
          t_translate = tm.Engine.t_translate *. 1e3;
          t_maintain = tm.Engine.t_maintain *. 1e3;
          encode_ms = r.Engine.sat_encode_ms;
          solve_ms = r.Engine.sat_solve_ms;
          clauses = r.Engine.sat_clauses;
          delta_r = Group_update.size r.Engine.delta_r;
          selected = List.length r.Engine.selected;
          affected = 0;
        }
  | Ok _ -> fail "%s %s selected or changed nothing" kind (Fmt.str "%a" Xupdate.pp u)
  | Error (_, rej) ->
      fail "%s rejected: %s" kind (Fmt.str "%a" Engine.pp_rejection rej)

let run_pair st = function
  | Relink { cls; del; ins } ->
      let c = Updates.cls_name cls in
      engine_update st (c ^ ".relink.delete") del;
      engine_update st (c ^ ".relink.insert") ins;
      let path = Xupdate.path_of del and kind = c ^ ".relink.readback" in
      query st kind path ~check:(expect kind path 1)
  | Fresh { cls; path } ->
      let c = Updates.cls_name cls in
      let k = fresh st in
      let child = child_path path k in
      engine_update st (c ^ ".fresh.insert")
        (Xupdate.Insert { etype = "c"; attr = Synth.c_attr k; path });
      engine_update st (c ^ ".fresh.delete") (Xupdate.Delete child);
      let kind = c ^ ".fresh.readback" in
      query st kind child ~check:(expect kind child 0)

(* {2 replica_apply} *)

(* ΔR batches per cycle; each deletes 2 H tuples and re-inserts the 2
   the previous batch deleted *)
let batches = 64

(* the warm-up replays the cycle's last batches; after one batch every
   read plan is cached, and every read then revalidates all rows *)
let warmup_batches = 8

type plan = {
  cycle : Group_update.t array;
  prefix : Group_update.t;  (** deletes what the first warm-up batch re-inserts *)
  restore : Group_update.t;  (** re-inserts what the last batch deleted *)
  reads : Ast.path array;
}

let replica_plan ~seed =
  let d = dataset ~n in
  let e = Engine.create ~seed:data_seed (Synth.atg ()) d.Synth.db in
  let store = e.Engine.store in
  (* every sub→c edge of the view is one H tuple; edges to leaf keys
     (no H tuple of their own) make batches of like cost, where edges to
     large single-parent subtrees put the p90 in a tail that moved 10x
     from seed to seed *)
  let h = Database.relation d.Synth.db "H" in
  let leaf k = Relation.select_eq h 0 (Value.Int k) = [] in
  let edges = ref [] in
  Store.iter_edges
    (fun u v _ ->
      let nu = Store.node store u and nv = Store.node store v in
      if nu.Store.etype = "sub" && nv.Store.etype = "c" then begin
        let pk = key_of nu.Store.attr.(0) and ck = key_of nv.Store.attr.(0) in
        if leaf ck then edges := (pk, ck) :: !edges
      end)
    store;
  let edges = Array.of_list (List.sort_uniq compare !edges) in
  Rng.shuffle (Rng.create seed) edges;
  if Array.length edges < 2 * batches then fail "too few H tuples";
  let gone i = [ edges.(2 * i); edges.((2 * i) + 1) ] in
  let del (a, b) = Group_update.Delete ("H", [ Value.Int a; Value.Int b ]) in
  let ins (a, b) = Group_update.Insert ("H", [| Value.Int a; Value.Int b |]) in
  {
    cycle =
      Array.init batches (fun i ->
          List.map del (gone i) @ List.map ins (gone ((i + batches - 1) mod batches)));
    prefix = List.map del (gone (batches - warmup_batches - 1));
    restore = List.map ins (gone (batches - 1));
    reads = read_paths store Updates.W2;
  }

let base_update st kind batch =
  incr attempted;
  Trace.next_op ();
  let (res, snap), ms =
    Trace.timed "update" (fun () ->
        let res =
          Trace.span "base_update.apply" (fun () -> Base_update.apply st.e batch)
        in
        (res, Trace.span "snapshot.capture" (fun () -> Snapshot.capture st.e)))
  in
  st.snap <- snap;
  match res with
  | Ok r when r.Base_update.affected_parents > 0 ->
      record_update kind ms;
      keep_row
        {
          r_op = !Trace.op;
          insert = false;
          t_eval = 0.;
          t_translate = 0.;
          t_maintain = 0.;
          encode_ms = 0.;
          solve_ms = 0.;
          clauses = 0;
          delta_r = Group_update.size batch;
          selected = 0;
          affected = r.Base_update.affected_parents;
        }
  | Ok _ -> fail "%s changed no parent" kind
  | Error m -> fail "%s failed: %s" kind m

(* batch i, then the 8 reads; their counts are recorded the first time
   a position is run and must repeat in every later cycle *)
let replica_step st plan expected i =
  base_update st "batch" plan.cycle.(i);
  Array.iteri
    (fun j path ->
      query st "W2.read" path ~check:(same_as_first expected i j))
    plan.reads

(* {2 Per-layer metrics of a traced in-process run} *)

let layers ~(c0 : Engine.stats) ~(c1 : Engine.stats) ~(g0 : Gc.stat)
    ~(g1 : Gc.stat) ~n_updates =
  let spans = Trace.run_spans () in
  let named name = List.filter (fun s -> s.Trace.name = name) spans in
  let arr f l = Array.of_list (List.map f l) in
  let p50 name = match named name with [] -> 0. | l -> median (arr Trace.dur_ms l) in
  let words name =
    match List.filter (fun s -> s.Trace.op <= !Trace.first_cycle_end) (named name) with
    | [] -> 0.
    | l -> mean (arr (fun s -> s.Trace.words) l)
  in
  let rows = Array.of_list (List.rev !rows) in
  let col f = Array.map f rows in
  let inserts = Array.of_list (List.filter (fun r -> r.insert) (Array.to_list rows)) in
  let p50_or_0 a = if Array.length a = 0 then 0. else median a in
  (* apply_group minus the three report timings: Validate, Txn, WAL hook *)
  let group_ms = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace group_ms s.Trace.op (Trace.dur_ms s)) (named "engine.apply_group");
  let self =
    Array.of_list
      (List.filter_map
         (fun r ->
           Option.map
             (fun ms -> ms -. r.t_eval -. r.t_translate -. r.t_maintain)
             (Hashtbl.find_opt group_ms r.r_op))
         (Array.to_list rows))
  in
  let per_update x = float_of_int x /. float_of_int n_updates in
  let d f = f c1 - f c0 in
  let hits = d (fun s -> s.Engine.cache_hits)
  and partials = d (fun s -> s.Engine.cache_partials)
  and misses = d (fun s -> s.Engine.cache_misses) in
  let sk_hits = d (fun s -> s.Engine.sat_skeleton_hits)
  and sk_misses = d (fun s -> s.Engine.sat_skeleton_misses) in
  [
    ("engine.apply_group_ms", p50 "engine.apply_group");
    ("engine.apply_group_self_ms", p50_or_0 self);
    ("eval_cache.eval_ms", p50_or_0 (col (fun r -> r.t_eval)));
    ("eval_cache.hits", per_update hits);
    ("eval_cache.partials", per_update partials);
    ("eval_cache.misses", per_update misses);
    ("eval_cache.reuse_ratio", ratio (hits + partials) (hits + partials + misses));
    ("engine.translate_ms", p50_or_0 (col (fun r -> r.t_translate)));
    ("delta_r.ops_per_update", mean (col (fun r -> float_of_int r.delta_r)));
    ("vinsert.encode_ms", p50_or_0 (Array.map (fun r -> r.encode_ms) inserts));
    ("vinsert.solve_ms", p50_or_0 (Array.map (fun r -> r.solve_ms) inserts));
    ("vinsert.skeleton_hit_ratio", ratio sk_hits (sk_hits + sk_misses));
    ("sat.clauses_per_insert", mean (Array.map (fun r -> float_of_int r.clauses) inserts));
    ("maintain.ms", p50_or_0 (col (fun r -> r.t_maintain)));
    ("base_update.apply_ms", p50 "base_update.apply");
    ("base_update.affected_parents", mean (col (fun r -> float_of_int r.affected)));
    ("snapshot.capture_ms", p50 "snapshot.capture");
    ("snapshot.query_ms", p50 "snapshot.query");
    ("update.selected_nodes", mean (col (fun r -> float_of_int r.selected)));
    ("query.result_nodes", mean (Array.of_list (List.map float_of_int !query_sizes)));
    ("setup.generate_ms", setup_p50 "setup.generate");
    ("setup.engine_create_ms", setup_p50 "setup.engine_create");
    ("setup.warmup_ms", setup_p50 "setup.warmup");
    ("update.minor_words", words "update");
    ("engine.apply_group.minor_words", words "engine.apply_group");
    ("base_update.apply.minor_words", words "base_update.apply");
    ("snapshot.capture.minor_words", words "snapshot.capture");
    ("snapshot.query.minor_words", words "snapshot.query");
    ("gc.major_collections", per_update (g1.Gc.major_collections - g0.Gc.major_collections));
    ("trace.update_coverage", update_coverage ());
  ]

(* {2 Runs} *)

let finish ~st ~setups_s ~cycles ~elapsed ~rss ~layers ~summary =
  (* correctness gate, outside every timed region *)
  check_final st.e ~n ~fresh:st.next_fresh;
  {
    setups_s;
    updates = Array.of_list (List.rev !updates);
    queries = Array.of_list (List.rev !queries);
    ops = !ops;
    elapsed_s = elapsed;
    rss_mb = rss;
    layers;
    summary = Printf.sprintf "|C|=%d, %d setups, %d cycles, %s" n (Array.length setups_s) cycles summary;
  }

let measured st ~seconds ~cycle =
  let traced = !Trace.enabled in
  let c0 = if traced then Some (Engine.stats st.e) else None in
  let g0 = Gc.quick_stat () in
  let cycles, elapsed, rss =
    timed_loop ~seconds ~cycle ~rss:(fun () -> vm_hwm_mb "self" -. Calib.buffer_mb)
  in
  let layers =
    match c0 with
    | Some c0 ->
        layers ~c0 ~c1:(Engine.stats st.e) ~g0 ~g1:(Gc.quick_stat ())
          ~n_updates:(List.length !updates)
    | None -> []
  in
  (cycles, elapsed, rss, layers)

(* set-ups per run: 3 for fig11_mix, whose set-up takes ~2.5 s, and 5
   for the others, whose set-ups are shorter and spread more *)
let fig11_mix ~seed ~seconds =
  let cycle = fig11_cycle ~seed in
  let setups_s, st =
    setups ~runs:3 ~discard:ignore ~setup:(fun () ->
        let st = start () in
        Trace.span "setup.warmup" (fun () ->
            for i = Array.length cycle - warmup_pairs to Array.length cycle - 1 do
              run_pair st cycle.(i)
            done);
        st)
  in
  let cycles, elapsed, rss, layers =
    measured st ~seconds ~cycle:(fun () -> Array.iter (run_pair st) cycle)
  in
  finish ~st ~setups_s ~cycles ~elapsed ~rss ~layers
    ~summary:(Printf.sprintf "%d pairs per cycle" (Array.length cycle))

let replica_apply ~seed ~seconds =
  let plan = replica_plan ~seed in
  let expected = Array.make_matrix batches (Array.length plan.reads) (-1) in
  let setups_s, st =
    setups ~runs:5 ~discard:ignore ~setup:(fun () ->
        let st = start () in
        Trace.span "setup.warmup" (fun () ->
            base_update st "prefix" plan.prefix;
            for i = batches - warmup_batches to batches - 1 do
              replica_step st plan expected i
            done);
        st)
  in
  let cycles, elapsed, rss, layers =
    measured st ~seconds ~cycle:(fun () ->
        for i = 0 to batches - 1 do
          replica_step st plan expected i
        done)
  in
  base_update st "restore" plan.restore;
  finish ~st ~setups_s ~cycles ~elapsed ~rss ~layers
    ~summary:(Printf.sprintf "%d batches per cycle" batches)
