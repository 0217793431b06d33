(** XML view updates and Algorithms Xinsert (Fig. 5) / Xdelete (Fig. 6):
    translating a single XML update into a group update ΔV over the edge
    relations. Node identity (type, $A) makes the revised side-effect
    semantics of Section 2.1 structural: all occurrences of a shared
    subtree are one node. *)

module Store = Rxv_dag.Store
module Tuple = Rxv_relational.Tuple
module Ast = Rxv_xpath.Ast
module Atg = Rxv_atg.Atg

type t =
  | Insert of { etype : string; attr : Tuple.t; path : Ast.path }
      (** insert (A, t) into p *)
  | Delete of Ast.path  (** delete p *)

val path_of : t -> Ast.path
val pp : Format.formatter -> t -> unit

exception Update_rejected of string

type insert_translation = {
  subtree_root : int;  (** rA *)
  subtree_nodes : int list;  (** NA *)
  new_nodes : int list;
  connect_edges : (int * int) list;
      (** ΔV: the (u_i, rA) edges whose base support Algorithm insert must
          establish; inner edges of ST(A, t) are supported by existing
          base data and already in the store *)
}

val xinsert :
  Atg.t ->
  Rxv_relational.Database.t ->
  Store.t ->
  is_ancestor_or_self:(int -> int -> bool) ->
  etype:string ->
  attr:Tuple.t ->
  selected:int list ->
  insert_translation
(** Algorithm Xinsert: expand ST(A, t) in the store and compute the
    connection edges towards r[[p]] = [selected].
    @raise Update_rejected at non-star positions or when the insertion
    would create a reference cycle (the expansion is rolled back). *)

val xdelete :
  Atg.t ->
  Store.t ->
  arrival_edges:(int * int) list ->
  selected:int list ->
  zero_move_match:bool ->
  (int * int) list
(** Algorithm Xdelete: ΔV is exactly Ep(r).
    @raise Update_rejected at non-star positions or on zero-length
    matches (nothing to unlink). *)
