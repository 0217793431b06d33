(** Databases: named relation instances over a {!Schema.db}. Each
    database owns one undo {!Journal} shared by all its relations, giving
    O(Δ) transactional rollback ({!begin_}/{!commit}/{!abort}) without
    deep copies. *)

type t

val create : Schema.db -> t
(** empty instances for every relation of the schema *)

val schema : t -> Schema.db

val journal : t -> Journal.t
(** the shared undo journal of this database's relations *)

val begin_ : t -> unit
(** open a (possibly nested) transaction frame on all relations *)

val commit : t -> unit
(** keep the frame's effects (folding its inverses into any parent frame).
    @raise Journal.No_transaction when no frame is open *)

val abort : t -> unit
(** undo every tuple mutation since the matching {!begin_}, in O(Δ); the
    secondary-index caches are maintained through the replay, not dropped.
    @raise Journal.No_transaction when no frame is open *)

val relation : t -> string -> Relation.t
(** @raise Schema.Schema_error if the relation does not exist. *)

val insert : t -> string -> Tuple.t -> unit
val delete_key : t -> string -> Value.t list -> bool
val mem_key : t -> string -> Value.t list -> bool
val find_by_key : t -> string -> Value.t list -> Tuple.t option

val cardinal : t -> int
(** total tuples across all relations *)

val int_ceiling : t -> int
(** the largest [Value.Int] in any relation, 0 when none: the maximum of
    every {!Relation.int_ceiling}, rescanning a relation whose watermark
    is stale only when its bound exceeds the exact ceilings found *)

val copy : t -> t
(** deep copy (used by republish-and-compare test oracles) *)

val iter_relations : (string -> Relation.t -> unit) -> t -> unit

val equal : t -> t -> bool
(** extensional equality of all instances *)

val pp : Format.formatter -> t -> unit
