(** The relational coding of a compressed XML view (Section 2.3).

    Nodes are identified by the Skolem function gen_id applied to their
    element type and semantic-attribute value, so shared subtrees are
    stored once. The store keeps the gen_A registries, the ordered edge
    relations edge_A_B (with, on star edges, the key-preserved SPJ rows
    that produced each edge — its provenance), parent lists, and a dense
    slot per node for bitset indexing. *)

module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple

type node = {
  id : int;
  etype : string;
  attr : Tuple.t;  (** the value of the semantic attribute $A *)
  text : string option;  (** pcdata content, for pcdata-typed elements *)
  slot : int;
}

type edge_info = {
  mutable provenance : Tuple.t list;
      (** the key-preserved SPJ rows producing this edge; distinct base
          derivations appear as distinct rows — Algorithm delete must
          remove a source of each. Empty for structural edges. *)
}

type t

exception Dag_error of string

module Itbl : Hashtbl.S with type key = int
(** tables keyed by node ids or slots, hashed by identity *)

val create : unit -> t

val journal : t -> Rxv_relational.Journal.t
(** the store's undo journal; every mutation entry point records its
    exact inverse while a frame is open *)

val begin_ : t -> unit
(** open a (possibly nested) transaction frame *)

val commit : t -> unit
(** keep the frame's effects (folding its inverses into any parent
    frame). @raise Rxv_relational.Journal.No_transaction without a frame *)

val abort : t -> unit
(** undo every node/edge mutation since the matching {!begin_}, in O(Δ) —
    ids, slots, document order and provenance are restored exactly.
    @raise Rxv_relational.Journal.No_transaction without a frame *)

val node : t -> int -> node
(** @raise Dag_error for unknown ids. *)

val mem_node : t -> int -> bool
val find_id : t -> string -> Tuple.t -> int option

val gen_id : t -> string -> Tuple.t -> ?text:string -> unit -> int
(** the Skolem function: the unique id for (etype, attr), creating and
    registering the node on first use *)

val set_root : t -> int -> unit
val root : t -> int

val children : t -> int -> int list
(** ordered (document order) *)

val parents : t -> int -> int list
val in_degree : t -> int -> int
val out_degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
val edge_info : t -> int -> int -> edge_info

val add_edge : t -> int -> int -> provenance:Tuple.t option -> unit
(** append the child at the rightmost position (the paper's insertion
    semantics); re-adding only accumulates new provenance rows *)

val remove_edge : t -> int -> int -> bool
(** nodes are never removed here — that is the garbage collector's job *)

val remove_node : t -> int -> unit
(** unregister an edge-free node and recycle its slot.
    @raise Dag_error if edges remain. *)

val set_provenance : t -> int -> int -> Tuple.t list -> unit
(** replace an edge's derivation rows — the journaled entry point for
    provenance refresh; mutating {!edge_info} directly would bypass the
    undo journal. @raise Dag_error if the edge does not exist. *)

val id_of_slot : t -> int -> int option
val next_id : t -> int
(** ids are allocated monotonically, so [id >= next_id t] taken before an
    operation identifies the nodes it created *)

val n_nodes : t -> int
val n_edges : t -> int
val slot_capacity : t -> int

val iter_nodes : (node -> unit) -> t -> unit
val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (int -> int -> edge_info -> unit) -> t -> unit

val gen_ids : t -> string -> int list
(** the gen_A registry for an element type *)

val gen_cardinal : t -> string -> int

type gen_view = {
  gv_ids : int array;  (** ascending node ids; read slots [0, gv_len) only *)
  gv_len : int;
  gv_version : int;
  gv_reset : int;
}

val gen_view : t -> string -> gen_view
(** Sorted image of gen_A with change stamps, maintained incrementally
    across store mutations (including journal undo). The array is the
    store's internal buffer — treat it as read-only and re-fetch after
    any mutation. Contract: two views with equal [gv_version] have
    identical contents; with equal [gv_reset], the earlier view's
    [gv_len]-prefix is still a prefix of the later one (only appends
    happened in between) — the insertion translator uses this to extend
    cached per-registry structures in O(new ids) per update. *)

val tree_of : ?max_nodes:int -> t -> int -> Rxv_xml.Tree.t
(** materialize the (uncompressed) tree below a node; sizes can be
    exponential in the DAG, so [max_nodes] guards oracles.
    @raise Dag_error when the budget is exhausted. *)

val to_tree : ?max_nodes:int -> t -> Rxv_xml.Tree.t

val reachable_from_root : t -> (int, unit) Hashtbl.t

val occurrence_counts : t -> (int, int) Hashtbl.t
(** occurrences of each node in the uncompressed tree (sharing stats) *)

val copy : t -> t
(** deep copy, slot assignments included — a test and bench oracle: the
    journal suite checks rollback against a copy taken before the frame,
    and the transactions bench rebuilds its deep-snapshot baseline from
    it *)

(** {2 Frozen views}

    A {!view} is an immutable image of the node table, the identities of
    text-carrying nodes, adjacency, and root.
    Freezing costs O(ids touched since the last freeze); node records
    and children lists are shared with the live store, never copied, so
    a view stays valid (and cheap) while the store keeps mutating.
    Capture with no transaction frame open to get committed state. *)

type view

val freeze : t -> view

val view_node : view -> int -> node
(** @raise Dag_error for ids unknown to the view. *)

val view_find_text_node : view -> string -> Tuple.t -> int option
(** {!find_id} as of the freeze, for nodes that carry text ([None] for
    every other node) *)

val view_children : view -> int -> int list
(** ordered (document order) *)

val view_parents : view -> int -> int list
val view_in_degree : view -> int -> int

val view_root : view -> int
(** @raise Dag_error when the view has no root. *)

val view_n_nodes : view -> int
val view_n_edges : view -> int

val view_fold_nodes : (node -> 'a -> 'a) -> view -> 'a -> 'a

val view_occurrence_counts : view -> (int, int) Hashtbl.t
(** {!occurrence_counts} computed from the view *)

(** {2 Durability}

    A [persisted] value is the store's complete state as plain data —
    what a checkpoint codec serializes. It captures everything {!copy}
    captures (ids, slots, free list, document order, provenance, root),
    so [of_persisted (to_persisted t)] is observationally identical to
    [t]: same Skolem ids, same slot assignment (L and M rebuilt against
    it line up bit for bit), same edge order. *)

type persisted_node = {
  pn_id : int;
  pn_etype : string;
  pn_attr : Tuple.t;
  pn_text : string option;
  pn_slot : int;
}

type persisted = {
  p_next_id : int;
  p_next_slot : int;
  p_free_slots : int list;
  p_root : int;  (** -1 when unset *)
  p_nodes : persisted_node list;  (** ascending id *)
  p_children : (int * int list) list;
      (** parent id, children in document order; ascending parent *)
  p_provenance : ((int * int) * Tuple.t list) list;
      (** derivation rows of star edges (edges absent here have none);
          ascending (parent, child) *)
}

val to_persisted : t -> persisted

val of_persisted : persisted -> t
(** rebuild a store from its persisted form. The journal starts fresh
    (no open frames survive a crash by design).
    @raise Dag_error when the data is inconsistent — duplicate ids or
    slots, counters behind allocated ids/slots, edges naming unknown
    nodes, or a dangling root. *)
