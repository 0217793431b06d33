(** Incremental CDCL SAT solving with a MiniSat-style interface.

    Unlike {!Walksat} (a throwaway per-call procedure) an {!Inc.t} solver
    is a long-lived object: clauses may be added between [solve] calls,
    every [solve] may carry a set of assumption literals that hold for
    that call only, and the clauses learned during one call — together
    with the variable-activity heuristic state — survive into the next.
    Closely related instances (the insertion translator solves one per
    update, differing in a handful of per-update constraints) therefore
    share most of their search effort.

    The implementation is a standard conflict-driven clause-learning
    loop: two watched literals per clause, VSIDS-style exponential
    variable activities with phase saving, first-UIP conflict analysis
    with non-chronological backjumping, and geometric restarts. It is
    complete: [solve] always returns [Sat] or [Unsat] (under the given
    assumptions). *)

type t

type result =
  | Sat of Cnf.assignment
  | Unsat  (** unsatisfiable, possibly only under the call's assumptions *)

val create : unit -> t

val add_clause : t -> Cnf.literal list -> unit
(** add one clause to the current scope. Duplicate literals are merged
    and tautological clauses dropped, mirroring {!Cnf.add_clause}; an
    empty clause marks the scope unsatisfiable (every subsequent [solve]
    returns [Unsat] until the scope is popped) instead of raising. *)

val add_cnf : t -> Cnf.t -> unit
(** add every clause of a built formula, and make sure the solver knows
    at least [Cnf.nvars] variables (so models cover variables that
    appear in no clause) *)

val ensure_nvars : t -> int -> unit
val nvars : t -> int

val solve : ?assumptions:Cnf.literal list -> t -> result
(** decide the conjunction of all live clauses under [assumptions]
    (literals forced for this call only). [Sat] carries a total
    assignment over variables [1..nvars]. Learned clauses and activity
    state are retained for subsequent calls. *)

(** {2 Scopes}

    [push] opens a clause scope; [pop] retracts every clause added — and
    every clause learned — since the matching [push], keeping the shared
    core underneath. Scopes nest. *)

val push : t -> unit

val pop : t -> unit
(** @raise Invalid_argument when no scope is open *)

(** {2 Counters} *)

val n_conflicts : t -> int
(** total conflicts analysed over the solver's lifetime *)

val n_learned : t -> int
(** learned clauses currently retained in the clause database *)
