(** The reachability matrix M (Section 3.1) and Algorithm Reach (Fig. 4).
    M(anc, desc) holds exactly when [anc] is a proper ancestor of [desc];
    stored as one slot-indexed {!Bitset} per node, so Algorithm Reach's
    inner union is a word-wise OR, [is_ancestor] a bit test and |M| a
    popcount. Bound to the store that assigns the slots. *)

type t

val create : Store.t -> t
(** an empty matrix bound to [store]'s slot assignment *)

val journal : t -> Rxv_relational.Journal.t
(** the matrix's undo journal. In-place row mutators copy-on-write each
    touched row once per frame; replace-style mutators save the old row
    object outright. *)

val begin_ : t -> unit
(** open a (possibly nested) transaction frame *)

val commit : t -> unit
(** keep the frame's effects (folding its inverses into any parent
    frame). @raise Rxv_relational.Journal.No_transaction without a frame *)

val abort : t -> unit
(** restore every row touched since the matching {!begin_} — O(touched
    rows), not O(|M|).
    @raise Rxv_relational.Journal.No_transaction without a frame *)

val slot_of : t -> int -> int
(** the slot of a live node id — for callers assembling slot sets to
    query with {!anc_intersects} / {!union_row_into}.
    @raise Store.Dag_error for unknown ids. *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor m a d]: is [a] a proper ancestor of [d]? One bit test;
    false when either id is not live. *)

val is_ancestor_or_self : t -> int -> int -> bool

val ancestors : t -> int -> int list

val size : t -> int
(** |M|: total (anc, desc) pairs, by popcount *)

val remove_pair : t -> int -> int -> unit

val remove_row : t -> int -> unit
(** forget a removed node's row before its slot is recycled; pairs with
    the node on the ancestor side are the caller's responsibility
    (Δ(M,L)delete rebuilds every affected descendant row first) *)

val absorb_parents : t -> int -> parents:int list -> unit
(** [absorb_parents m d ~parents]: anc(d) ∪= ∪_p ({p} ∪ anc(p)), the
    row-growing ΔM step of Δ(M,L)insert (Fig. 7), word-wise. *)

val replace_row_from_parents : t -> int -> parents:int list -> unit
(** [replace_row_from_parents m d ~parents]: anc(d) := ∪_p ({p} ∪ anc(p)),
    the row-rebuilding ΔM step of Δ(M,L)delete (Fig. 8). *)

val anc_intersects : t -> int -> Bitset.t -> bool
(** does anc(id) meet the given slot set? One word-wise intersection. *)

val union_row_into : t -> int -> dst:Bitset.t -> unit
(** dst ∪= anc(id), word-wise *)

val compute : Store.t -> Topo.t -> t
(** Algorithm Reach: processing L backwards guarantees every parent's set
    is final when a node is reached, so
    anc(d) = ∪_(p ∈ parent(d)) ({p} ∪ anc(p)) — each union one word-wise
    OR over the parent's row. *)

val equal : t -> t -> Store.t -> bool
(** extensional equality — the "incremental ≡ recomputation" oracle; both
    matrices must share [store]'s slot assignment *)

val copy : store:Store.t -> t -> t
(** deep copy (per-row word-array blits) bound to the given — typically
    freshly copied — store; {!Store.copy} preserves slot assignments *)

(** {2 Frozen views} *)

type view
(** an immutable image of M, addressed by slot. Freezing is O(1); the
    live matrix then pays one shallow pointer-array copy on its first
    write plus one row copy per row actually touched — O(touched rows)
    per writer batch. Pair with the {!Store.view} frozen at the same
    quiescent instant for the slot↔id mapping. *)

val freeze : t -> view
(** capture with no transaction frame open to get committed state *)

val view_anc_intersects : view -> int -> Bitset.t -> bool
(** does anc(slot) meet the given dense slot set? *)

val view_union_row_into : view -> int -> dst:Bitset.t -> unit
(** dst ∪= anc(slot), word-wise *)

val view_size : view -> int
(** |M| at capture, by popcount *)
