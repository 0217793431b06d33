(** Which parents a base tuple feeds through a star rule: the rule
    evaluated with the tuple's relation occurrence pinned to its key,
    projecting the columns bound to the parent's parameters. Shared by
    {!Base_update} (the parents a ΔR must reconcile) and {!Vdelete} (the
    parents whose edges may still reference a candidate source). *)

module Store = Rxv_dag.Store
module Value = Rxv_relational.Value
module Spj = Rxv_relational.Spj
module Database = Rxv_relational.Database
module Atg = Rxv_atg.Atg

val parents :
  Database.t ->
  Atg.t ->
  Store.t ->
  string ->
  Spj.t ->
  alias:string ->
  rname:string ->
  Value.t list ->
  int list
(** [parents db atg store a_type q ~alias ~rname key]: the live nodes of
    type [a_type] whose rule [q] derives a row from the tuple keyed [key]
    at occurrence [alias] of [rname], against [db] as it stands. Every
    live node of type [a_type] when a parameter of [q] has no column
    bound to it, so the impact cannot be localized. *)
