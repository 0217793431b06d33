(** Incremental maintenance of the published view under *direct*
    relational updates — the other direction of Fig. 3.

    The paper's framework assumes the XML view tracks its base data (its
    reference [8], "Incremental evaluation of schema-directed XML
    publishing", by the same authors); a deployment needs both: updates
    through the view (Engine.apply) and updates below it. Given a group
    update ΔR, this module repairs the DAG store, its provenance, and the
    auxiliary structures L and M without republishing:

    + {b impact analysis} — for every star rule and every changed tuple,
      the affected parents are found by {!Impact}: the rule re-evaluated
      with the changed tuple pinned to its key, projecting the
      parameter-binding columns (deletions are analysed against the
      pre-state, insertions against the post-state);
    + {b differential expansion} — each affected parent's rule is
      re-evaluated; removed children are unlinked at every parent before
      added children are published (new subtrees expand exactly as in
      Xinsert) and linked; provenance rows are refreshed;
    + {b maintenance} — Δ(M,L)insert / Δ(M,L)delete per change, exactly as
      for view updates.

    Rejected when the new data would make the view infinite (a cycle) —
    in that case ΔR is rolled back and nothing changes. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Maintain = Rxv_dag.Maintain
module Tuple = Rxv_relational.Tuple
module Schema = Rxv_relational.Schema
module Spj = Rxv_relational.Spj
module Eval = Rxv_relational.Eval
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg
module Publish = Rxv_atg.Publish

type report = {
  affected_parents : int;
  edges_added : int;
  edges_removed : int;
  nodes_deleted : int;
}

exception Would_cycle

(* [parent]'s star rule re-evaluated against [db]: each child attribute
   it derives, with its derivation rows. [plans] memoizes compiled rule
   plans across the parents of one ΔR. *)
let derived_children (db : Database.t) (store : Store.t)
    ~(plans : (string, Eval.plan) Hashtbl.t) (sr : Atg.star_rule)
    (parent : int) : (Tuple.t, Tuple.t list) Hashtbl.t =
  let plan =
    let qname = sr.Atg.query.Spj.qname in
    match Hashtbl.find_opt plans qname with
    | Some p -> p
    | None ->
        let p = Eval.prepare db sr.Atg.query in
        Hashtbl.replace plans qname p;
        p
  in
  let rows =
    Eval.run_prepared db plan ~params:(Store.node store parent).Store.attr ()
  in
  let desired = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let battr = Array.sub row 0 sr.Atg.attr_width in
      let prev = Option.value ~default:[] (Hashtbl.find_opt desired battr) in
      Hashtbl.replace desired battr (row :: prev))
    rows;
  desired

(* Reconcile the store's edges below each parent of [work] with its
   re-evaluated star rule, in two phases: every parent unlinks the
   children its rule no longer derives before any parent links a new
   one. Every parent whose child set can change is in [work], so the
   store holds a subgraph of the view [db] publishes at every step, and
   the cycle guard fires only when that view is itself cyclic; linking
   first could close a cycle through a child another parent has yet to
   unlink. Returns the edges added and removed and the nodes deleted. *)
let reconcile (atg : Atg.t) (db : Database.t) (store : Store.t) (l : Topo.t)
    (m : Reach.t) ~plans work =
  let derived =
    List.filter_map
      (fun (b_type, sr, parent) ->
        if Store.mem_node store parent then
          Some (b_type, parent, derived_children db store ~plans sr parent)
        else None)
      work
  in
  let added = ref 0 and removed = ref 0 and deleted = ref 0 in
  (* phase 1: removals *)
  List.iter
    (fun (b_type, parent, desired) ->
      if Store.mem_node store parent then
        List.iter
          (fun c ->
            let n = Store.node store c in
            if n.Store.etype = b_type && not (Hashtbl.mem desired n.Store.attr)
            then begin
              ignore (Store.remove_edge store parent c);
              incr removed;
              let gone = Maintain.on_delete store l m ~targets:[ c ] in
              deleted := !deleted + List.length gone
            end)
          (Store.children store parent))
    derived;
  (* phase 2: additions and provenance refresh *)
  List.iter
    (fun (b_type, parent, desired) ->
      if Store.mem_node store parent then
        Hashtbl.iter
          (fun battr rows ->
            match Store.find_id store b_type battr with
            | Some c when Store.mem_edge store parent c ->
                (* kept edge: refresh derivations *)
                Store.set_provenance store parent c (List.rev rows)
            | existing ->
                (* new child: expand its subtree, then link *)
                let root_id, subtree_nodes, new_nodes =
                  match Publish.publish_subtree atg db store b_type battr with
                  | r -> r
                  | exception Publish.Cyclic_view _ -> raise Would_cycle
                in
                (* cycle guard: the child's subtree must not reach the
                   parent *)
                let reaches_parent =
                  List.exists
                    (fun s -> Reach.is_ancestor_or_self m s parent)
                    subtree_nodes
                  || (match existing with Some c -> c = parent | None -> false)
                in
                if reaches_parent then begin
                  Publish.rollback_subtree store ~new_nodes;
                  raise Would_cycle
                end;
                List.iter
                  (fun row ->
                    Store.add_edge store parent root_id ~provenance:(Some row))
                  (List.rev rows);
                incr added;
                Maintain.on_insert store l m ~targets:[ parent ] ~root_id
                  ~new_nodes)
          desired)
    derived;
  (!added, !removed, !deleted)

(** [apply engine delta_r] applies ΔR to the database and incrementally
    repairs the view. On failure (key violation, or the change would make
    the view cyclic) the database is restored and the view untouched. *)
let apply (e : Engine.t) (delta_r : Group_update.t) : (report, string) result
    =
  let atg = e.Engine.atg and db = e.Engine.db in
  let schema = atg.Atg.schema in
  let store = e.Engine.store and l = e.Engine.topo and m = e.Engine.reach in
  (* full inverse of ΔR, captured against the pre-state, for rollback *)
  let inverse =
    List.rev
      (List.filter_map
         (fun op ->
           match op with
           | Group_update.Insert (rname, t) ->
               let rel = Schema.find_relation schema rname in
               let key = Tuple.key_of rel t in
               if Database.mem_key db rname key then None
               else Some (Group_update.Delete (rname, key))
           | Group_update.Delete (rname, key) -> (
               match Database.find_by_key db rname key with
               | Some t -> Some (Group_update.Insert (rname, t))
               | None -> None))
         delta_r)
  in
  (* phase A: impact of deletions, against the pre-state *)
  let impacts : (string * string * Atg.star_rule * int) list ref = ref [] in
  let note_impacts op_rname key =
    List.iter
      (fun (a_type, b_type, sr) ->
        List.iter
          (fun (alias, rname) ->
            if rname = op_rname then
              List.iter
                (fun pid -> impacts := (a_type, b_type, sr, pid) :: !impacts)
                (Impact.parents db atg store a_type sr.Atg.query ~alias ~rname
                   key))
          sr.Atg.query.Spj.from)
      (Atg.star_rules atg)
  in
  List.iter
    (function
      | Group_update.Delete (rname, key) -> note_impacts rname key
      | Group_update.Insert _ -> ())
    delta_r;
  (* apply ΔR *)
  (match Group_update.apply db delta_r with
  | () -> ()
  | exception Group_update.Apply_error msg -> failwith msg);
  (* phase B: impact of insertions, against the post-state *)
  List.iter
    (function
      | Group_update.Insert (rname, t) ->
          let rel = Schema.find_relation schema rname in
          note_impacts rname (Tuple.key_of rel t)
      | Group_update.Delete _ -> ())
    delta_r;
  (* deduplicate (rule, parent) pairs *)
  let seen = Hashtbl.create 16 in
  let work = ref [] in
  List.iter
    (fun (a_type, b_type, sr, pid) ->
      if not (Hashtbl.mem seen (a_type, b_type, pid)) then begin
        Hashtbl.replace seen (a_type, b_type, pid) ();
        work := (b_type, sr, pid) :: !work
      end)
    !impacts;
  let plans = Hashtbl.create 8 in
  match reconcile atg db store l m ~plans !work with
  | added, removed, deleted ->
      (* direct base updates are durable too: log the committed ΔR, like
         Engine.apply does for view updates (never inside an open
         transaction frame — the enclosing commit logs the whole group) *)
      (match e.Engine.wal with
      | Some hook
        when Rxv_relational.Journal.depth (Database.journal db) = 0
             && not (Group_update.is_empty delta_r) ->
          hook.Engine.on_commit delta_r ~seed:e.Engine.seed
      | Some _ | None -> ());
      Ok
        {
          affected_parents = List.length !work;
          edges_added = added;
          edges_removed = removed;
          nodes_deleted = deleted;
        }
  | exception Would_cycle ->
      (* restore the database, then reconcile the same parents against the
         restored state — reconciliation is idempotent, so this undoes the
         partial store changes, and the restored view is acyclic, so it
         cannot trip the cycle guard; a garbage sweep clears any orphaned
         expansion remnants *)
      Group_update.apply db inverse;
      ignore (reconcile atg db store l m ~plans !work);
      ignore (Maintain.collect_garbage store l m);
      Error "base update would make the view cyclic (rolled back)"
