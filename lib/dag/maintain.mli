(** Incremental maintenance of the auxiliary structures (Section 3.4):
    Δ(M,L)insert (Fig. 7), Δ(M,L)delete (Fig. 8), and the background
    garbage collection of Section 2.3. Both entry points run *after* the
    store's edges were updated by Xinsert/Xdelete, matching Fig. 3.

    Δ(M,L)insert keeps L's own order instead of building LNC, aligning L
    and LA with it and merging at pivots (Fig. 7 lines 6–11 and 14). Any
    common subtree node that sits after a target moves in front of it
    with [swap] (lines 12–13, applied to every common node, not only rA),
    and the new nodes, in subtree post-order, are spliced immediately
    before the lowest-ordered target. That is valid because an insertion
    gives no existing node a new child except the targets: the only
    reachability it adds among existing nodes is targets (and their
    ancestors) reaching the common nodes. Property-tested against
    recomputation. *)

type delete_stats = {
  deleted_nodes : int list;
  deleted_slots : int list;
      (** store slots freed by [deleted_nodes], captured before removal:
          the store recycles slots, so cached per-slot rows must be
          dirtied even though the ids are gone *)
}

val on_insert :
  Store.t ->
  Topo.t ->
  Reach.t ->
  targets:int list ->
  root_id:int ->
  new_nodes:int list ->
  unit
(** Algorithm Δ(M,L)insert. [targets] is r[[p]]; [root_id] is rA;
    [new_nodes] are the subtree nodes not present before. The store must
    already contain the subtree and the connection edges.
    @raise Topo.Topo_error if there are new nodes but no target *)

val on_delete :
  Store.t -> Topo.t -> Reach.t -> targets:int list -> delete_stats
(** Algorithm Δ(M,L)delete. The Ep(r) edges must already be removed from
    the store; recomputes ancestor rows of desc-or-self(targets)
    (ancestors first), cascades orphan removal (Δ'V) and cleans L, M and
    the gen registries. *)

val collect_garbage : Store.t -> Topo.t -> Reach.t -> int list
(** full-scan collector removing every node unreachable from the root;
    the incremental path should leave nothing for it to find (tested) *)
