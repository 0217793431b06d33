(** The topological order L of Section 3.1: every distinct node, with u
    preceding v only if u is not an ancestor of v — descendants first,
    root last. Algorithm Reach and the delete maintenance consume L
    backwards; XPath evaluation does not read it. Supports the maintenance operations of
    Section 3.4: ordinal comparison, the paper's [swap(L, u, v)] move,
    tombstoned removal and splicing new nodes before an anchor. *)

type t

exception Topo_error of string

val journal : t -> Rxv_relational.Journal.t
(** the order's undo journal; mutators record exact inverses while a
    frame is open. Auto-compaction is deferred while a frame is open. *)

val begin_ : t -> unit
(** open a (possibly nested) transaction frame *)

val commit : t -> unit
(** keep the frame's effects (folding its inverses into any parent
    frame). @raise Rxv_relational.Journal.No_transaction without a frame *)

val abort : t -> unit
(** undo every removal/swap/splice since the matching {!begin_}, in O(Δ)
    for removals and swaps (splices restore a saved tail, matching the
    cost of the splice itself).
    @raise Rxv_relational.Journal.No_transaction without a frame *)

val of_ids : int list -> t
val of_store : Store.t -> t
(** post-order DFS from the root (iterative, deep-DAG safe), O(|V|);
    detached nodes are placed first *)

val mem : t -> int -> bool

val ord : t -> int -> int
(** ordinal consistent with L. @raise Topo_error for absent nodes. *)

val is_before : t -> int -> int -> bool
val live_count : t -> int
val to_list : t -> int list

val iter : (int -> unit) -> t -> unit
(** forward: leaves first *)

val iter_backward : (int -> unit) -> t -> unit
(** root side first — the order Reach and the delete maintenance use *)

val remove : t -> int -> unit
(** O(1) tombstone; the array compacts when more than half dead *)

val swap : t -> int -> int -> is_desc_of_v:(int -> bool) -> unit
(** the paper's [swap(L, u, v)]: given an inserted edge (u, v) with
    ord u < ord v, move the nodes of L[u:v] that are descendants-or-self
    of v immediately in front of u, preserving relative order within both
    groups. [is_desc_of_v] must answer against the *updated* reachability.
    O(|L[u:v]|). *)

val insert_before : t -> anchor:int -> int list -> unit
(** [insert_before l ~anchor ids] splices the new nodes [ids], in list
    order, immediately before [anchor]. Shifts only the tail of L from
    the anchor on. @raise Topo_error if an id is already in L *)

val is_valid : t -> Store.t -> bool
(** test oracle: every edge's child precedes its parent and |L| = n *)

val copy : t -> t
(** deep copy — used by test oracles; the copy gets a fresh journal *)
