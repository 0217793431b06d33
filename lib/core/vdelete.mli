(** Algorithm delete (Fig. 9): PTIME translation of group view deletions
    to base-table deletions under key preservation (Theorem 1).

    Deletable sources Sr(Q, t) are read off each edge's key-preserved
    provenance rows; a source qualifies when no *surviving* view row
    references it. Whether one does is decided without scanning V: the
    pinned impact query of {!Impact} names, per star rule over the
    source's relation, the parents the tuple feeds in [db], and only
    their edges to the rule's child type, minus ΔV, are searched (every
    live parent of the type when the impact cannot be localized). Each
    candidate source costs one such query per star rule naming its
    relation, and is decided at most once per call. Greedy source choice
    (reuse an already chosen deletion when possible); exact minimality is
    NP-complete even under key preservation (Theorem 3). *)

module Store = Rxv_dag.Store
module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg

type source = string * Value.t list
(** (relation, key) *)

type outcome =
  | Translated of Group_update.t
  | Rejected of string

val translate :
  Atg.t -> Database.t -> Store.t -> delta_v:(int * int) list -> outcome
(** [translate atg db store ~delta_v]: ΔR for the edge deletions
    [delta_v], or rejection when some view row has no side-effect-free
    source. [db] must be the database [store] publishes, before ΔR is
    applied. *)
