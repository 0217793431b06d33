(** Incremental maintenance of the auxiliary structures (Section 3.4):
    Algorithm Δ(M,L)insert (Fig. 7) and Algorithm Δ(M,L)delete (Fig. 8),
    plus the background garbage collection of Section 2.3.

    Both entry points are called *after* the store's edge relations have
    been updated by Xinsert/Xdelete, which matches the framework of
    Fig. 3: the relational update is carried out first and maintenance
    runs in the background.

    L maintenance on insertion keeps L's own order and needs neither LNC,
    the alignment of L and LA, nor the pivot merge of Fig. 7 (lines 6–11
    and 14). It runs two steps: (1) every common node (NC) that sits
    after a target moves in front of it with [swap] — the paper's lines
    12–13, applied to every common node rather than only rA, since ST may
    share interior nodes with the view; (2) the new nodes, in subtree
    post-order, are spliced immediately before the lowest-ordered target.
    Why that is valid:
    - The new edges are target → rA and edges out of new nodes:
      [Publish.publish_subtree] never re-expands an existing node, so no
      existing node other than a target gains a child.
    - Acyclicity puts no target inside the subtree. Reachability among
      existing nodes therefore changes in one way only: the targets (and
      so their ancestors) now reach NC. L restricted to existing nodes is
      valid once step 1 has placed every NC node before every target.
    - A new node's descendants are new or in NC; its ancestors are new
      nodes, targets, or ancestors of targets. After step 1, step 2 thus
      puts every new node after all of its descendants and before all
      of its ancestors. *)

(* Descendants-or-self of [roots] via the (current) adjacency, as a set. *)
let desc_or_self_set store roots =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (Store.children store id)
    end
  in
  List.iter go roots;
  seen

(* Post-order (descendants-first) topological order of the subtree rooted
   at [root_id], as an id list. *)
let subtree_order store root_id =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (Store.children store id);
      order := id :: !order
    end
  in
  go root_id;
  List.rev !order

(** Algorithm Δ(M,L)insert. [targets] is r[[p]]; [root_id] is rA;
    [new_nodes] are the subtree nodes that did not exist before the
    insertion (so NC = subtree \ new_nodes). The store must already
    contain the subtree and the (target, rA) connection edges. *)
let on_insert (store : Store.t) (l : Topo.t) (m : Reach.t) ~targets ~root_id
    ~new_nodes : unit =
  let la_list = subtree_order store root_id in
  let new_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace new_set id ()) new_nodes;
  let target_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace target_set id ()) targets;
  let in_subtree = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_subtree id ()) la_list;
  (* --- ΔM (Fig. 7 lines 3-5): process subtree ancestors-first (la_list
     is descendants-first, so reversed); a node's new ancestors are its
     parents inside the subtree or among the targets, whose rows are
     already final. Rows only grow — each union a word-wise OR. *)
  List.iter
    (fun d ->
      let parents =
        List.filter
          (fun p -> Hashtbl.mem in_subtree p || Hashtbl.mem target_set p)
          (Store.parents store d)
      in
      if parents <> [] then Reach.absorb_parents m d ~parents)
    (List.rev la_list);
  (* --- L maintenance (see the header) --- *)
  let fresh, nc = List.partition (Hashtbl.mem new_set) la_list in
  (* step 1, generalized lines 12-13: every common node must end up
     before every target, which now reaches it *)
  List.iter
    (fun p ->
      List.iter
        (fun u ->
          if Topo.ord l u < Topo.ord l p then
            Topo.swap l u p ~is_desc_of_v:(Reach.is_ancestor m p))
        targets)
    nc;
  (* step 2: the new nodes, descendants first, before the lowest target *)
  (match targets with
  | [] ->
      if fresh <> [] then
        raise (Topo.Topo_error "insert maintenance: new nodes but no target")
  | t0 :: rest ->
      let anchor =
        List.fold_left
          (fun best u -> if Topo.ord l u < Topo.ord l best then u else best)
          t0 rest
      in
      Topo.insert_before l ~anchor fresh)

(** Algorithm Δ(M,L)delete. [targets] is r[[p]]; the Ep(r) edges must
    already be removed from the store. Recomputes ancestor rows for
    desc-or-self of the targets (ancestors first), cascades the removal of
    orphaned nodes (Δ'V — the background garbage collection of Section
    2.3), and removes dead entries from L, M and the gen registries.
    Returns the ids removed. *)
let on_delete (store : Store.t) (l : Topo.t) (m : Reach.t) ~targets =
  let lr_set = desc_or_self_set store targets in
  (* LR sorted by L, traversed backward = ancestors first. Sorting the
     (small) descendant set by ordinal is O(|LR| log |LR|); scanning all
     of L per operation would be O(|V|). *)
  let lr =
    let ids =
      Hashtbl.fold
        (fun id () acc -> if Topo.mem l id then id :: acc else acc)
        lr_set []
    in
    List.sort (fun a b -> compare (Topo.ord l b) (Topo.ord l a)) ids
  in
  let keep = Hashtbl.create 64 in
  (* absent = true; false once deleted *)
  let is_kept a = Option.value ~default:true (Hashtbl.find_opt keep a) in
  let deleted = ref [] in
  let root = Store.root store in
  List.iter
    (fun d ->
      if d <> root then begin
        let pd = List.filter is_kept (Store.parents store d) in
        (* rebuild d's ancestor row from its kept parents, word-wise *)
        Reach.replace_row_from_parents m d ~parents:pd;
        if pd = [] then begin
          Hashtbl.replace keep d false;
          deleted := d :: !deleted;
          Topo.remove l d;
          (* Δ'V: the cascade drops the dead node's out-edges *)
          List.iter
            (fun d' -> ignore (Store.remove_edge store d d'))
            (Store.children store d)
        end
      end)
    lr;
  (* final removal: nodes are edge-free now *)
  List.iter
    (fun d ->
      Reach.remove_row m d;
      Store.remove_node store d)
    !deleted;
  !deleted

(** Full-scan garbage collector: removes every node unreachable from the
    root. The incremental path (Fig. 8) should leave nothing for this to
    find; tests assert as much. Returns the ids removed. *)
let collect_garbage (store : Store.t) (l : Topo.t) (m : Reach.t) =
  let reachable = Store.reachable_from_root store in
  let dead =
    Store.fold_nodes
      (fun n acc ->
        if Hashtbl.mem reachable n.Store.id then acc else n.Store.id :: acc)
      store []
  in
  List.iter
    (fun id ->
      List.iter (fun c -> ignore (Store.remove_edge store id c)) (Store.children store id);
      List.iter (fun p -> ignore (Store.remove_edge store p id)) (Store.parents store id))
    dead;
  List.iter
    (fun id ->
      Topo.remove l id;
      Reach.remove_row m id;
      Store.remove_node store id)
    dead;
  dead
