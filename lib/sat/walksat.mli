(** WalkSAT (Selman–Kautz), the local-search SAT procedure the paper's
    insertion heuristic uses [30]. Incomplete: [Unknown] does not prove
    unsatisfiability — matching the paper, whose solver succeeded on 78%
    of the insertion cases. *)

type result =
  | Sat of Cnf.assignment
  | Unknown  (** flip/restart budget exhausted *)

type stats = {
  mutable flips : int;
  mutable restarts : int;
}

val solve :
  ?seed:int ->
  ?noise:float ->
  ?max_flips:int ->
  ?max_restarts:int ->
  Cnf.t ->
  result * stats
(** standard noise strategy: from a random assignment, repeatedly pick an
    unsatisfied clause and flip either a random variable of it
    (probability [noise]) or the variable with minimal break count. Runs
    are deterministic under a fixed [seed]. *)

val solve_result :
  ?seed:int ->
  ?noise:float ->
  ?max_flips:int ->
  ?max_restarts:int ->
  Cnf.t ->
  result
