(** Symbolic SPJ evaluation over tuples enriched with variables
    (Appendix A).

    The insertion encoder evaluates each view query on the database
    incremented with tuple templates whose unknown fields are variables:
    predicates between known values are decided outright, and predicates
    touching a variable are deferred as equality constraints attached to
    the produced row. *)

type sval =
  | Known of Value.t
  | Var of int  (** variable id; its type is tracked by the caller *)

type srow = sval array

type constr = Ceq of sval * sval
(** an undecided equality: at least one side is a variable *)

type result_row = { row : srow; constraints : constr list }

(** One FROM position's source: a concrete relation with a row filter
    (so [I_i \ X_i] needs no copying), explicit symbolic rows (the
    tuple-template sets U_i), or a ground row set its owner keeps (the
    store's gen_A registry, which the insertion translator does not
    copy): a probe that binds every column is answered by [mem], any
    other access scans [rows] — the same set, in scan order — which is
    forced only then. *)
type source =
  | Concrete of Relation.t * (Tuple.t -> bool)
  | Rows of srow list
  | Member of { mem : Tuple.t -> bool; rows : srow list Lazy.t }

exception Symbolic_error of string

val of_tuple : Tuple.t -> srow
val sval_equal : sval -> sval -> bool

val run :
  Schema.db -> Spj.t -> ?params:Tuple.t -> source array -> result_row list
(** [run schema q ~params sources] evaluates [q] with FROM position [i]
    ranging over [sources.(i)] ([params] are ground), returning every
    producible row with the conjunction of symbolic equalities under which
    it exists. Hash joins are used whenever both probe key and build
    column are ground; symbolic rows fall back to residual scans.
    @raise Symbolic_error on arity mismatch or unbound aliases. *)

val pp_sval : Format.formatter -> sval -> unit
val pp_constr : Format.formatter -> constr -> unit
val pp_row : Format.formatter -> srow -> unit
