(** The XML view update framework of Fig. 3.

    An engine instance owns the published relational database I, the DAG
    store V (the relational coding of the compressed view), and the
    auxiliary structures L and M. Processing an update ΔX goes through

    + DTD validation (Section 2.4, {!Validate});
    + XPath evaluation on the DAG with side-effect detection (Section 3.2,
      {!Dag_eval});
    + translation ΔX → ΔV ({!Xupdate}) and ΔV → ΔR ({!Vdelete} /
      {!Vinsert});
    + execution of ΔR on I and ΔV on V;
    + background maintenance of L and M ({!Rxv_dag.Maintain}).

    On detecting side effects the engine consults the caller's policy:
    [`Abort] rejects the update; [`Proceed] carries on under the revised
    semantics of Section 2.1 (the DAG representation applies the update at
    every occurrence automatically). All failures leave I, V, L and M
    untouched. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Maintain = Rxv_dag.Maintain
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Tuple = Rxv_relational.Tuple
module Value = Rxv_relational.Value
module Eval = Rxv_relational.Eval
module Atg = Rxv_atg.Atg
module Publish = Rxv_atg.Publish
module Tree = Rxv_xml.Tree
module Plan = Rxv_xpath.Plan

(** Durability hook (see [Rxv_persist]): fired once per committed
    top-level update or group, outside any open transaction frame. *)
type wal_hook = {
  on_commit : Rxv_relational.Group_update.t -> seed:int -> unit;
  records_since_checkpoint : unit -> int;
}

type t = {
  atg : Atg.t;
  text_types : (string, Value.ty) Hashtbl.t;
      (** the anchorable pcdata types: see {!text_types} *)
  mutable db : Database.t;
  mutable store : Store.t;
  mutable topo : Topo.t;
  mutable reach : Reach.t;
  mutable seed : int;  (** WalkSAT seed; bumped per insertion *)
  mutable wal : wal_hook option;
  sat : Vinsert.cache;
      (** incremental insertion-translation state: structural
          skeletons *)
  live_reads : int Atomic.t;  (** queries answered on the live structures *)
  snapshot_reads : int Atomic.t;  (** queries answered on frozen views *)
  evaluations : int Atomic.t;  (** XPath plans evaluated *)
  memo_hits : int Atomic.t;  (** snapshot reads answered by a memo *)
}

type policy = [ `Abort | `Proceed ]

type rejection =
  | Invalid of string  (** static DTD validation failed *)
  | Side_effects of int list
      (** update aborted: occurrences outside r[[p]] would change *)
  | Untranslatable of string  (** no side-effect-free ΔR exists / found *)

type timings = {
  t_eval : float;  (** XPath evaluation on the DAG *)
  t_translate : float;  (** ΔX→ΔV, ΔV→ΔR, and executing both *)
  t_maintain : float;  (** Δ(M,L) maintenance (background in the paper) *)
}

type report = {
  delta_r : Group_update.t;
  selected : int list;
  side_effects : int list;  (** nonempty iff the update had side effects *)
  timings : timings;
  sat_vars : int;
  sat_clauses : int;
  sat_encode_ms : float;  (** insertion: template + side-effect encoding *)
  sat_solve_ms : float;  (** insertion: SAT search + canonicalization *)
  sat_skeleton_hit : bool;
      (** insertion: the structural plan came from the engine cache *)
}

let log_src = Logs.Src.create "rxv.engine" ~doc:"XML view update engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(** How many offending node ids {!pp_rejection} prints before eliding. *)
let rejection_id_preview = 8

let pp_rejection ppf = function
  | Invalid msg -> Fmt.pf ppf "invalid against the DTD: %s" msg
  | Side_effects ids ->
      let n = List.length ids in
      let prefix = List.filteri (fun i _ -> i < rejection_id_preview) ids in
      Fmt.pf ppf "side effects at %d unselected occurrence parent(s) [%a%s]" n
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.int)
        prefix
        (if n > rejection_id_preview then ", …" else "")
  | Untranslatable msg -> Fmt.pf ppf "untranslatable: %s" msg

(* The pcdata types whose rule is [R_pcdata 0] over a one-field $A, with
   that field's type. A node of such a type l is childless and its text
   prints its $A, so the l nodes whose text is s are at most one: the
   node of $A = (v), for the v that prints as s. Dag_eval anchors a
   value filter [l = "s"] there. *)
let text_types (atg : Atg.t) =
  let tys = Hashtbl.create 8 in
  Hashtbl.iter
    (fun etype rule ->
      match (rule, Hashtbl.find_opt atg.Atg.attr_tys etype) with
      | Atg.R_pcdata 0, Some [| ty |] -> Hashtbl.replace tys etype ty
      | _ -> ())
    atg.Atg.rules;
  tys

(* the value of type [ty] that prints as [s], if any: "07" names no int *)
let value_printing_as (ty : Value.ty) s =
  let v =
    match ty with
    | Value.TInt -> Option.map Value.int (int_of_string_opt s)
    | Value.TStr -> Some (Value.str s)
    | Value.TBool -> Option.map Value.bool (bool_of_string_opt s)
  in
  match v with
  | Some v when String.equal (Value.to_string v) s -> Some v
  | Some _ | None -> None

(* Dag_eval's text lookup over a node-identity lookup [find_id] *)
let text_nodes text_types find_id : Dag_eval.text_nodes =
 fun l s ->
  match Hashtbl.find_opt text_types l with
  | None -> None
  | Some ty ->
      Some
        (match value_printing_as ty s with
        | Some v -> Option.to_list (find_id l [| v |])
        | None -> [])

(* an engine around [store], with L and M built from it; [verb] says in
   the log line where the store came from *)
let assemble ~verb ~seed (atg : Atg.t) (db : Database.t) (store : Store.t) =
  let topo = Topo.of_store store in
  let reach = Reach.compute store topo in
  Log.info (fun m ->
      m "%s %s: %d nodes, %d edges, |M|=%d" verb atg.Atg.name
        (Store.n_nodes store) (Store.n_edges store) (Reach.size reach));
  {
    atg;
    text_types = text_types atg;
    db;
    store;
    topo;
    reach;
    seed;
    wal = None;
    sat = Vinsert.create_cache ();
    live_reads = Atomic.make 0;
    snapshot_reads = Atomic.make 0;
    evaluations = Atomic.make 0;
    memo_hits = Atomic.make 0;
  }

(** [create atg db] publishes σ(I) and builds L and M. [seed] starts the
    WalkSAT seed sequence (deterministic by default). *)
let create ?(seed = 20070415) (atg : Atg.t) (db : Database.t) : t =
  assemble ~verb:"published" ~seed atg db (Publish.publish atg db)

(** [of_durable atg db store] assembles an engine from recovered
    components: L and M are rebuilt from the deserialized store, which
    skips republication (the expensive SPJ evaluation) entirely. *)
let of_durable ?(seed = 20070415) (atg : Atg.t) (db : Database.t)
    (store : Store.t) : t =
  assemble ~verb:"recovered" ~seed atg db store

let attach_wal (e : t) (hook : wal_hook) = e.wal <- Some hook
let detach_wal (e : t) = e.wal <- None

(** Fire the WAL hook for a committed top-level mutation. Inside an open
    frame ([Txn] / [apply_group] / [dry_run]) nothing is logged — the
    enclosing commit logs the combined ΔR once, and aborted work never
    reaches the log. [depth] is the journal depth at which this call
    site is top-level: 0 for a plain [apply] (logged after its commit),
    1 for [apply_group] (logged {e inside} its own frame, just before
    commit, so a failed append can still abort the group). A commit
    whose ΔR is empty is logged too: the batcher numbers every
    committed group, and replication and recovery count one record per
    commit. *)
let wal_log ?(depth = 0) (e : t) (delta_r : Group_update.t) : unit =
  match e.wal with
  | Some hook
    when Rxv_relational.Journal.depth (Database.journal e.db) = depth ->
      hook.on_commit delta_r ~seed:e.seed
  | Some _ | None -> ()

let now () = Unix.gettimeofday ()

(* The reader of the live structures; it anchors value filters over
   [text_types]. *)
let live_src (e : t) =
  Dag_eval.live_src
    ~text_nodes:(text_nodes e.text_types (Store.find_id e.store))
    e.store e.reach

(* Every XPath evaluation of the engine, live or on a snapshot, compiles
   its path and evaluates it on new tables. *)
let eval_src (e : t) src path =
  Atomic.incr e.evaluations;
  Dag_eval.eval_plan_src src (Plan.compile path)

let eval_path (e : t) path = eval_src e (live_src e) path

let no_timings = { t_eval = 0.; t_translate = 0.; t_maintain = 0. }

let noop_report ?(selected = []) ?(side_effects = []) ?(timings = no_timings)
    () =
  {
    delta_r = [];
    selected;
    side_effects;
    timings;
    sat_vars = 0;
    sat_clauses = 0;
    sat_encode_ms = 0.;
    sat_solve_ms = 0.;
    sat_skeleton_hit = false;
  }

let apply_delete (e : t) ~(policy : policy) path :
    (report, rejection) Stdlib.result =
  match Validate.check_delete e.atg.Atg.dtd path with
  | Validate.Reject msg -> Error (Invalid msg)
  | Validate.Ok_types _ -> (
      let t0 = now () in
      let ev = eval_path e path in
      let t_eval = now () -. t0 in
      if ev.Dag_eval.side_effects_delete <> [] && policy = `Abort then
        Error (Side_effects ev.Dag_eval.side_effects_delete)
      else if ev.Dag_eval.selected = [] then
        Ok (noop_report ~timings:{ no_timings with t_eval } ())
      else
        match
          Xupdate.xdelete e.atg e.store
            ~arrival_edges:ev.Dag_eval.arrival_edges
            ~selected:ev.Dag_eval.selected
            ~zero_move_match:ev.Dag_eval.zero_move_match
        with
        | exception Xupdate.Update_rejected msg -> Error (Untranslatable msg)
        | delta_v -> (
            let t1 = now () in
            match Vdelete.translate e.atg e.db e.store ~delta_v with
            | Vdelete.Rejected msg -> Error (Untranslatable msg)
            | Vdelete.Translated delta_r ->
                Group_update.apply e.db delta_r;
                List.iter
                  (fun (u, v) -> ignore (Store.remove_edge e.store u v))
                  delta_v;
                let t_translate = now () -. t1 in
                let t2 = now () in
                ignore
                  (Maintain.on_delete e.store e.topo e.reach
                     ~targets:ev.Dag_eval.selected);
                let t_maintain = now () -. t2 in
                Ok
                  {
                    delta_r;
                    selected = ev.Dag_eval.selected;
                    side_effects = ev.Dag_eval.side_effects_delete;
                    timings = { t_eval; t_translate; t_maintain };
                    sat_vars = 0;
                    sat_clauses = 0;
                    sat_encode_ms = 0.;
                    sat_solve_ms = 0.;
                    sat_skeleton_hit = false;
                  }))

let apply_insert (e : t) ~(policy : policy) ~etype ~attr path :
    (report, rejection) Stdlib.result =
  match Validate.check_insert e.atg.Atg.dtd ~etype path with
  | Validate.Reject msg -> Error (Invalid msg)
  | Validate.Ok_types _ -> (
      let t0 = now () in
      let ev = eval_path e path in
      let t_eval = now () -. t0 in
      if ev.Dag_eval.side_effects <> [] && policy = `Abort then
        Error (Side_effects ev.Dag_eval.side_effects)
      else if ev.Dag_eval.selected = [] then
        Ok (noop_report ~timings:{ no_timings with t_eval } ())
      else begin
        let t1 = now () in
        match
          Xupdate.xinsert e.atg e.db e.store
            ~is_ancestor_or_self:(fun a d ->
              Reach.is_ancestor_or_self e.reach a d)
            ~etype ~attr ~selected:ev.Dag_eval.selected
        with
        | exception Xupdate.Update_rejected msg -> Error (Untranslatable msg)
        | tr -> (
            if tr.Xupdate.connect_edges = [] && tr.Xupdate.new_nodes = []
            then
              (* every edge already present: the update is a no-op *)
              Ok
                (noop_report ~selected:ev.Dag_eval.selected
                   ~side_effects:ev.Dag_eval.side_effects
                   ~timings:{ no_timings with t_eval } ())
            else begin
              e.seed <- e.seed + 1;
              match
                Vinsert.translate e.atg e.db e.store
                  ~connect_edges:tr.Xupdate.connect_edges ~seed:e.seed
                  ~cache:e.sat
              with
              | Vinsert.Rejected msg ->
                  Publish.rollback_subtree e.store
                    ~new_nodes:tr.Xupdate.new_nodes;
                  Error (Untranslatable msg)
              | Vinsert.Translated
                  {
                    delta_r;
                    provenances;
                    sat_vars;
                    sat_clauses;
                    encode_ms;
                    solve_ms;
                    skeleton_hit;
                  } -> (
                  match Group_update.apply e.db delta_r with
                  | exception Group_update.Apply_error msg ->
                      Publish.rollback_subtree e.store
                        ~new_nodes:tr.Xupdate.new_nodes;
                      Error (Untranslatable msg)
                  | () ->
                      (* ΔV: the connection edges, with their derivations *)
                      List.iter
                        (fun (u, v) ->
                          let rows =
                            List.filter_map
                              (fun (edge, row) ->
                                if edge = (u, v) then Some row else None)
                              provenances
                          in
                          match rows with
                          | [] -> Store.add_edge e.store u v ~provenance:None
                          | rows ->
                              List.iter
                                (fun row ->
                                  Store.add_edge e.store u v
                                    ~provenance:(Some row))
                                rows)
                        tr.Xupdate.connect_edges;
                      (* extra derivations of pre-existing edges *)
                      List.iter
                        (fun ((u, v), row) ->
                          if Store.mem_edge e.store u v then
                            Store.add_edge e.store u v ~provenance:(Some row))
                        provenances;
                      let t_translate = now () -. t1 in
                      let t2 = now () in
                      Maintain.on_insert e.store e.topo e.reach
                        ~targets:ev.Dag_eval.selected
                        ~root_id:tr.Xupdate.subtree_root
                        ~new_nodes:tr.Xupdate.new_nodes;
                      let t_maintain = now () -. t2 in
                      Ok
                        {
                          delta_r;
                          selected = ev.Dag_eval.selected;
                          side_effects = ev.Dag_eval.side_effects;
                          timings = { t_eval; t_translate; t_maintain };
                          sat_vars;
                          sat_clauses;
                          sat_encode_ms = encode_ms;
                          sat_solve_ms = solve_ms;
                          sat_skeleton_hit = skeleton_hit;
                        })
            end)
      end)

(** [apply e u ~policy] processes one XML view update end to end. *)
let apply ?(policy : policy = `Proceed) (e : t) (u : Xupdate.t) :
    (report, rejection) Stdlib.result =
  let result =
    match u with
    | Xupdate.Delete path -> apply_delete e ~policy path
    | Xupdate.Insert { etype; attr; path } ->
        apply_insert e ~policy ~etype ~attr path
  in
  (match result with
  | Ok r ->
      wal_log e r.delta_r;
      Log.info (fun m ->
          m "%a: applied, |ΔR|=%d, %d selected%s" Xupdate.pp u
            (Group_update.size r.delta_r)
            (List.length r.selected)
            (if r.side_effects <> [] then " (side effects)" else ""))
  | Error rej ->
      Log.info (fun m -> m "%a: %a" Xupdate.pp u pp_rejection rej));
  result

(** Evaluate an XPath query on the current view (read-only). *)
let query (e : t) path =
  Atomic.incr e.live_reads;
  eval_path e path

(** Materialize the current view as a tree. *)
let to_tree ?max_nodes (e : t) = Store.to_tree ?max_nodes e.store

(** Consistency oracle for tests: the incrementally maintained view must
    equal republication from scratch, and L and M must match
    recomputation. *)
let check_consistency (e : t) : (unit, string) Stdlib.result =
  let fresh = Publish.publish e.atg e.db in
  let ok_tree =
    Tree.equal_canonical
      (Store.to_tree ~max_nodes:5_000_000 fresh)
      (Store.to_tree ~max_nodes:5_000_000 e.store)
  in
  if not ok_tree then Error "view differs from republication"
  else if not (Topo.is_valid e.topo e.store) then
    Error "topological order invalid"
  else begin
    let l = Topo.of_store e.store in
    let m = Reach.compute e.store l in
    if not (Reach.equal m e.reach e.store) then
      Error "reachability matrix differs from recomputation"
    else Ok ()
  end

(** Statistics of Fig. 10(b): nodes, edges, |M|, |L|, published subtree
    occurrences and the sharing rate. *)
type stats = {
  n_nodes : int;
  n_edges : int;
  m_size : int;
  l_size : int;
  occurrences : int;  (** element occurrences in the uncompressed tree *)
  sharing : float;
      (** fraction of shared instances — nodes with more than one parent,
          the statistic the paper reports as 31.4% for its dataset *)
  txn_depth : int;  (** open transaction frames *)
  wal_records : int option;
      (** records since the last checkpoint; [None] without a WAL *)
  cache_hits : int;  (** snapshot reads answered by the snapshot's memo *)
  cache_misses : int;  (** XPath evaluations *)
  cache_partials : int;  (** always 0 (see engine.mli) *)
  live_reads : int;  (** queries answered on the live structures *)
  snapshot_reads : int;  (** queries answered on MVCC snapshots *)
  sat_skeleton_hits : int;
      (** insertion translations served by a cached CNF skeleton *)
  sat_skeleton_misses : int;  (** translations that built a skeleton *)
  sat_learned_kept : int;  (** CDCL learned clauses retained *)
}

(* The Fig. 10(b) statistics of a node table, live or frozen: the node
   occurrences of the uncompressed tree ([occ] per node) and the sharing
   rate. The paper's sharing statistic counts shared instances of
   star-child types (31.4% of C instances): structural seq children
   always have in-degree 1 and would dilute it. *)
let tree_stats atg ~fold_nodes ~in_degree occ =
  let star_children =
    List.sort_uniq compare (List.map snd (Atg.star_positions atg))
  in
  let shared, star_total =
    fold_nodes
      (fun nd ((s, t) as acc) ->
        if List.mem nd.Store.etype star_children then
          ((if in_degree nd.Store.id > 1 then s + 1 else s), t + 1)
        else acc)
      (0, 0)
  in
  ( Hashtbl.fold (fun _ c acc -> acc + c) occ 0,
    if star_total = 0 then 0.
    else float_of_int shared /. float_of_int star_total )

let stats (e : t) : stats =
  let sc = Vinsert.counters e.sat in
  let occurrences, sharing =
    tree_stats e.atg
      ~fold_nodes:(fun f acc -> Store.fold_nodes f e.store acc)
      ~in_degree:(Store.in_degree e.store)
      (Store.occurrence_counts e.store)
  in
  {
    n_nodes = Store.n_nodes e.store;
    n_edges = Store.n_edges e.store;
    m_size = Reach.size e.reach;
    l_size = Topo.live_count e.topo;
    occurrences;
    sharing;
    txn_depth = Rxv_relational.Journal.depth (Database.journal e.db);
    wal_records =
      Option.map (fun h -> h.records_since_checkpoint ()) e.wal;
    cache_hits = Atomic.get e.memo_hits;
    cache_misses = Atomic.get e.evaluations;
    cache_partials = 0;
    live_reads = Atomic.get e.live_reads;
    snapshot_reads = Atomic.get e.snapshot_reads;
    sat_skeleton_hits = sc.Vinsert.skeleton_hits;
    sat_skeleton_misses = sc.Vinsert.skeleton_misses;
    sat_learned_kept = sc.Vinsert.learned_kept;
  }

(** {2 Transactions}

    One engine transaction is one undo-journal frame on each of the four
    mutable components (the database's shared relation journal, the
    store's, L's and M's) and the saved WalkSAT seed. Mutation entry
    points record exact inverses at their sites, so {!Txn.abort} replays
    O(Δ) inverse operations — not the O(view) deep copies the previous
    snapshot/restore implementation paid. [apply_group] and [dry_run]
    run on top of the same frames. *)

module Txn = struct
  type handle = { t_seed : int }

  let begin_ (e : t) : handle =
    Database.begin_ e.db;
    Store.begin_ e.store;
    Topo.begin_ e.topo;
    Reach.begin_ e.reach;
    { t_seed = e.seed }

  let commit (e : t) (_ : handle) : unit =
    Reach.commit e.reach;
    Topo.commit e.topo;
    Store.commit e.store;
    Database.commit e.db

  (* The four journals are independent — no undo closure reaches across
     structures — so their abort order is free; reverse of [begin_] for
     hygiene. *)
  let abort (e : t) (h : handle) : unit =
    Reach.abort e.reach;
    Topo.abort e.topo;
    Store.abort e.store;
    Database.abort e.db;
    e.seed <- h.t_seed
end

(** [reset_from e db store seed] installs recovered state into a live
    engine in place — the replication follower's checkpoint-install path.
    Mirrors {!of_durable} (rebuild L and M from the store rather than
    republishing) but keeps the engine identity, so callers holding [e]
    behind a lock see the new state on their next access. Must not be
    called with a transaction frame open. *)
let reset_from (e : t) (db : Database.t) (store : Store.t) ~(seed : int) :
    unit =
  if Rxv_relational.Journal.depth (Database.journal e.db) > 0 then
    invalid_arg "Engine.reset_from: transaction frame open";
  e.db <- db;
  e.store <- store;
  e.topo <- Topo.of_store store;
  e.reach <- Reach.compute store e.topo;
  e.seed <- seed;
  (* skeletons reference registries of the replaced store *)
  Vinsert.clear_cache e.sat;
  Log.info (fun m ->
      m "reset %s: %d nodes, %d edges, |M|=%d" e.atg.Atg.name
        (Store.n_nodes store) (Store.n_edges store) (Reach.size e.reach))

(** {2 MVCC snapshots}

    A snapshot is an immutable image of the committed view state: the
    frozen store and M views, all that XPath evaluation reads. Capture
    is O(touched nodes since the last capture) — the persistent
    per-structure views share everything untouched — and reads against
    a snapshot take no engine lock at all:
    the writer can mutate (and even commit further updates)
    concurrently. *)

module Snapshot = struct
  type engine = t

  type t = {
    owner : engine;
    store_view : Store.view;
    reach_view : Reach.view;
    src : Dag_eval.src;
    evals_at_capture : int * int;  (** (memo hits, evaluations) counters *)
    sat_counters : Vinsert.counters;  (** translation counters at capture *)
    reads_at_capture : int * int;  (** (live, snapshot) read counters *)
    wal_records : int option;  (** WAL backlog at capture *)
    mutable stats_memo : stats option;
    results : (Rxv_xpath.Ast.path, Dag_eval.result) Hashtbl.t;
        (** per-snapshot result memo — sound because the views are
            immutable; the engine's one result cache *)
    rlock : Mutex.t;  (** guards [results] across reader threads *)
  }

  let capture (e : engine) : t =
    if Rxv_relational.Journal.depth (Database.journal e.db) > 0 then
      invalid_arg "Engine.Snapshot.capture: transaction frame open";
    let store_view = Store.freeze e.store in
    let reach_view = Reach.freeze e.reach in
    {
      owner = e;
      store_view;
      reach_view;
      src =
        Dag_eval.view_src
          ~text_nodes:
            (text_nodes e.text_types (Store.view_find_text_node store_view))
          store_view reach_view;
      evals_at_capture = (Atomic.get e.memo_hits, Atomic.get e.evaluations);
      sat_counters = Vinsert.counters e.sat;
      reads_at_capture =
        (Atomic.get e.live_reads, Atomic.get e.snapshot_reads);
      wal_records =
        Option.map (fun h -> h.records_since_checkpoint ()) e.wal;
      stats_memo = None;
      results = Hashtbl.create 8;
      rlock = Mutex.create ();
    }

  (** Evaluate an XPath query against the snapshot — no engine lock.
      Repeat queries are answered from the snapshot's own memo (the
      views are immutable, so a path's answer never changes — exactly
      the caching a live read can never have); a path's first read
      evaluates it on the frozen views. Two threads racing on a path's
      first read may both evaluate it; they compute the same immutable
      answer, so last-write-wins is harmless. *)
  let query (s : t) path =
    Atomic.incr s.owner.snapshot_reads;
    Mutex.lock s.rlock;
    let memo = Hashtbl.find_opt s.results path in
    Mutex.unlock s.rlock;
    match memo with
    | Some r ->
        Atomic.incr s.owner.memo_hits;
        r
    | None ->
        let r = eval_src s.owner s.src path in
        Mutex.lock s.rlock;
        Hashtbl.replace s.results path r;
        Mutex.unlock s.rlock;
        r

  (** The engine statistics as of the capture instant: structural fields
      are derived from the frozen views (lazily, memoized — capture
      itself stays O(touched)), counter fields are the capture-time
      values. Deterministic: every call on one snapshot returns the same
      record, whatever the writer has done since. *)
  let stats (s : t) : stats =
    match s.stats_memo with
    | Some st -> st
    | None ->
        let v = s.store_view in
        let occurrences, sharing =
          tree_stats s.owner.atg
            ~fold_nodes:(fun f acc -> Store.view_fold_nodes f v acc)
            ~in_degree:(Store.view_in_degree v)
            (Store.view_occurrence_counts v)
        in
        let st =
          {
            n_nodes = Store.view_n_nodes v;
            n_edges = Store.view_n_edges v;
            m_size = Reach.view_size s.reach_view;
            (* L holds every node, as Topo.is_valid checks *)
            l_size = Store.view_n_nodes v;
            occurrences;
            sharing;
            txn_depth = 0;
            wal_records = s.wal_records;
            cache_hits = fst s.evals_at_capture;
            cache_misses = snd s.evals_at_capture;
            cache_partials = 0;
            live_reads = fst s.reads_at_capture;
            snapshot_reads = snd s.reads_at_capture;
            sat_skeleton_hits = s.sat_counters.Vinsert.skeleton_hits;
            sat_skeleton_misses = s.sat_counters.Vinsert.skeleton_misses;
            sat_learned_kept = s.sat_counters.Vinsert.learned_kept;
          }
        in
        s.stats_memo <- Some st;
        st
end

(** [apply_group e us] applies every update of [us] in order, atomically:
    if any is rejected (or raises), the engine is rolled back to its state
    before the group; on rejection the failing index is returned. *)
let apply_group ?(policy : policy = `Proceed) (e : t) (us : Xupdate.t list) :
    (report list, int * rejection) Stdlib.result =
  let txn = Txn.begin_ e in
  let rec go i acc = function
    | [] -> (
        let reports = List.rev acc in
        (* one logical WAL record per committed group: the concatenated
           ΔR replays through [Base_update] as a unit on recovery. The
           append happens before [Txn.commit] — if the log write fails
           (disk error, torn append) the whole group rolls back at O(Δ)
           cost instead of leaving the engine ahead of its own log. *)
        match
          wal_log ~depth:1 e (List.concat_map (fun r -> r.delta_r) reports)
        with
        | () ->
            Txn.commit e txn;
            Ok reports
        | exception exn ->
            Txn.abort e txn;
            raise exn)
    | u :: rest -> (
        match apply ~policy e u with
        | Ok r -> go (i + 1) (r :: acc) rest
        | Error rej ->
            Txn.abort e txn;
            Error (i, rej)
        | exception exn ->
            Txn.abort e txn;
            raise exn)
  in
  go 0 [] us

(** [dry_run e u] reports what [u] would do — including the ΔR it would
    execute — without changing any state: the work happens inside a
    transaction frame that is always aborted, at O(Δ) rollback cost. *)
let dry_run ?(policy : policy = `Proceed) (e : t) (u : Xupdate.t) :
    (report, rejection) Stdlib.result =
  let txn = Txn.begin_ e in
  Fun.protect
    ~finally:(fun () -> Txn.abort e txn)
    (fun () -> apply ~policy e u)
