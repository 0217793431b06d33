(** SPJ query evaluation: compile-once left-deep hash-join pipelines with
    selection pushdown. Publishing prepares each star rule once and runs
    it per parent node, with the parent's attribute as parameters. A
    level whose equalities cover its relation's primary key looks the
    tuple up in the key table; other joins probe the relations'
    persistent secondary indexes ({!Relation.index_on}), which survive
    across calls and are maintained incrementally under updates. *)

exception Eval_error of string

type plan
(** a query compiled against a schema: alias positions and column indexes
    resolved, WHERE split per pipeline level into join keys and residual
    filters. Plans reference relations by name only, so they stay valid as
    the database contents change (including snapshot/rollback). *)

val prepare : Database.t -> Spj.t -> plan
(** compile [q] once for repeated evaluation.
    @raise Eval_error on unbound aliases. *)

val run_prepared :
  Database.t -> plan -> ?params:Tuple.t -> unit -> Tuple.t list
(** evaluate a compiled plan; duplicates are eliminated (the edge views of
    Section 2.3 have set semantics).
    @raise Eval_error on missing parameters. *)

val run : Database.t -> Spj.t -> ?params:Tuple.t -> unit -> Tuple.t list
(** [run db q ~params ()] = [run_prepared db (prepare db q) ~params ()].
    Callers evaluating the same query repeatedly should {!prepare} once.
    @raise Eval_error on unbound aliases or missing parameters. *)
