(** Schema-directed publishing: σ(I) as a compressed DAG (Sections 2.2-2.3).

    Expansion is top-down from the root, allocating nodes through gen_id:
    the subtree property makes every shared subtree expand once, yielding
    the DAG compression directly. Both {!publish} and {!publish_subtree}
    compile each star rule's SPJ query once per call and run it per
    parent node ({!Rxv_relational.Eval.prepare}). *)

module Store = Rxv_dag.Store
module Tuple = Rxv_relational.Tuple
module Database = Rxv_relational.Database

exception Cyclic_view of string
(** the base data denotes an infinite tree (e.g. cyclic prerequisites) *)

val publish : Atg.t -> Database.t -> Store.t
(** materialize the DAG compression of σ(I).
    @raise Cyclic_view when the data induces an infinite tree. *)

val publish_subtree :
  Atg.t -> Database.t -> Store.t -> string -> Tuple.t -> int * int list * int list
(** [publish_subtree atg db store a t] expands ST(a, t) inside an existing
    store — the step Xinsert delegates to the publishing algorithm (Fig. 5
    line 2). Returns (subtree root id, all subtree node ids NA, the newly
    created subset). Expansion stops at pre-existing (already expanded)
    nodes. @raise Atg.Atg_error on unknown types or ill-typed attributes.
    @raise Cyclic_view when the data below (a, t) holds a reference cycle
    (possible for data the view did not reach); the expansion is undone
    first. *)

val rollback_subtree : Store.t -> new_nodes:int list -> unit
(** undo a subtree expansion (new nodes only connect to new parents or to
    pending connect edges, so this restores the previous store) *)
