(** Relation instances: key-indexed tuple stores enforcing the primary-key
    constraint. Point lookups by key are O(1), which the deletable-source
    computation of Algorithm delete (Section 4.2) and the tuple-template
    checks of Algorithm insert (Appendix A) rely on. Secondary hash
    indexes over arbitrary column sets ({!index_on}) back the hash joins
    of compiled SPJ plans; they persist across queries and are maintained
    incrementally by {!insert}/{!delete_key}. *)

type t

exception Key_violation of string

val create : Schema.relation -> t
val schema : t -> Schema.relation
val cardinal : t -> int

val set_journal : t -> Journal.t -> unit
(** attach the undo journal {!insert}/{!delete_key} record inverse tuple
    ops into while a frame is open; a database attaches one shared
    journal to all its relations. Replaying the inverses goes through the
    same two entry points, so the secondary-index cache stays maintained
    across rollback instead of being dropped. *)

val journal : t -> Journal.t option

val find_by_key : t -> Value.t list -> Tuple.t option
val mem_key : t -> Value.t list -> bool

val mem : t -> Tuple.t -> bool
(** [mem r t] holds when exactly [t] (not merely a tuple with the same
    key) is present. *)

val insert : t -> Tuple.t -> unit
(** Re-inserting an identical tuple is a no-op.
    @raise Key_violation when a different tuple holds the key.
    @raise Tuple.Type_error on arity/type mismatch. *)

val delete_key : t -> Value.t list -> bool
(** [delete_key r key] removes the keyed tuple; returns whether one was
    removed. *)

val delete : t -> Tuple.t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Tuple.t list
(** all tuples, sorted — deterministic for tests *)

val copy : t -> t
(** deep copy of the rows; the secondary-index cache starts empty and
    rebuilds on demand *)

val index_on : t -> int list -> (Value.t list, Tuple.t list) Hashtbl.t
(** [index_on r cols]: the secondary hash index over column positions
    [cols], mapping each projection to its tuples. Built by one scan on
    first request, then maintained incrementally under inserts and
    deletes. The returned table is live — treat it as read-only. *)

val drop_indexes : t -> unit
(** discard every secondary index (they rebuild on demand) — for cold
    benchmark arms and memory reclamation after bulk loads *)

val int_ceiling : t -> int
(** the largest [Value.Int] in any field of any row, 0 when none.
    Maintained as an O(1) watermark (a delete removing the maximum
    triggers one lazy rescan) — serves fresh-value allocation without a
    per-call full scan. *)

val int_watermark : t -> [ `Exact of int | `At_most of int ]
(** {!int_ceiling} in O(1), without its rescan: [`Exact] while no delete
    has removed the maximum since the last rescan, otherwise [`At_most]
    an upper bound (every insert raises it, {!copy} carries it) *)

val select_eq : t -> int -> Value.t -> Tuple.t list
(** linear scan on one column; repeated lookups should use
    {!index_on} *)

val pp : Format.formatter -> t -> unit
