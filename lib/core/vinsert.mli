(** Algorithm insert (Section 4.3 + Appendix A): heuristic translation of
    group view insertions to base insertions via SAT — the problem is
    NP-complete even under key preservation (Theorem 2).

    Pipeline: (1) derive tuple templates per connection edge from the
    equality closure of the rule's WHERE conjunction (keys are derivable
    thanks to key preservation; finite-domain unknowns become SAT
    variables, infinite-domain ones are freshenable); (2) symbolically
    evaluate every edge view over all U/A source combinations with at
    least one template position, classifying produced rows as intended
    (already in the updated DAG or among the connection edges) or side
    effects — ground side effects reject outright (case (a)), freshenable
    conditions are dropped (case (b)), finite-domain conditions become ¬φ
    clauses (case (c)); (3) solve — WalkSAT first, then the incremental
    CDCL core {!Rxv_sat.Inc} as the complete fallback — then canonicalize
    any witness to the lexicographically minimal model by CDCL assumption
    probes, and instantiate ΔR plus the provenance rows of the new edges.
    Canonicalization makes the outcome a function of the formula alone,
    so cached and cold translations agree byte-for-byte. *)

module Store = Rxv_dag.Store
module Tuple = Rxv_relational.Tuple
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg

type outcome =
  | Translated of {
      delta_r : Group_update.t;
      provenances : ((int * int) * Tuple.t) list;
          (** ground derivation rows to attach to edges *)
      sat_vars : int;
      sat_clauses : int;
      encode_ms : float;  (** template derivation + side-effect scan *)
      solve_ms : float;  (** SAT search + model canonicalization *)
      skeleton_hit : bool;
          (** the structural plan came from the cache *)
    }
  | Rejected of string

type cache
(** Per-engine translation state: structural skeletons (augmented "+gen"
    queries per U/A choice) keyed on the sorted template-relation
    signature. gen_A is not kept here: every translation reads it from
    the store's Skolem table. Supplying a different ATG value drops
    everything. Purely an accelerator: translations with a warm, a
    cleared or a stale cache produce identical outcomes. *)

type counters = {
  skeleton_hits : int;  (** translations that reused a cached skeleton *)
  skeleton_misses : int;  (** translations that had to build one *)
  learned_kept : int;  (** CDCL learned clauses retained across probes *)
}

val create_cache : unit -> cache

val clear_cache : cache -> unit
(** drop the skeletons (counters survive) *)

val counters : cache -> counters
(** cumulative since [create_cache] (not reset by {!clear_cache}) *)

val translate :
  Atg.t ->
  Database.t ->
  Store.t ->
  connect_edges:(int * int) list ->
  seed:int ->
  cache:cache ->
  outcome
(** The store must already contain the expanded subtree (whose gen
    entries participate in the side-effect scan); [seed] feeds WalkSAT. *)
