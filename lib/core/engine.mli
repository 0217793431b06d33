(** The XML view update framework of Fig. 3 — the library's main entry
    point.

    An engine owns the published database I, the DAG store V (the
    relational coding of the compressed view σ(I)), and the auxiliary
    structures L and M. Processing an update runs: static DTD validation →
    XPath evaluation on the DAG with side-effect detection → ΔX→ΔV →
    ΔV→ΔR → atomic execution → incremental Δ(M,L) maintenance. All
    failures leave I, V, L and M untouched. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg

(** Durability hook: a write-ahead log attached to the engine (see
    [Rxv_persist]). [on_commit] is invoked once per committed top-level
    update or update group, empty ΔR included — never inside an open
    transaction frame, so aborted groups and dry runs are not logged —
    with the combined ΔR and the WalkSAT seed after the commit.
    [records_since_checkpoint] backs the {!stats} field of the same
    name. *)
type wal_hook = {
  on_commit : Group_update.t -> seed:int -> unit;
  records_since_checkpoint : unit -> int;
}

type t = {
  atg : Atg.t;
  text_types : (string, Rxv_relational.Value.ty) Hashtbl.t;
      (** the pcdata types whose rule is [R_pcdata 0] over a one-field
          $A, with that field's type: a value filter over one of them
          names at most one node, which {!Dag_eval} anchors the filter
          at *)
  mutable db : Database.t;
  mutable store : Store.t;
  mutable topo : Topo.t;
  mutable reach : Reach.t;
  mutable seed : int;
  mutable wal : wal_hook option;
  sat : Vinsert.cache;
      (** incremental insertion-translation state (structural
          skeletons) — purely an accelerator, dropped wholesale by
          {!reset_from} *)
  live_reads : int Atomic.t;
      (** cumulative {!query} calls (answered on the live structures,
          i.e. under whatever lock the caller holds) *)
  snapshot_reads : int Atomic.t;
      (** cumulative {!Snapshot.query} calls (lock-free MVCC reads) *)
  evaluations : int Atomic.t;
      (** cumulative XPath evaluations: {!query}, every update's path, and
          each {!Snapshot.query} its snapshot's memo did not answer *)
  memo_hits : int Atomic.t;
      (** cumulative {!Snapshot.query} calls answered by the snapshot's
          memo *)
}

type policy = [ `Abort | `Proceed ]
(** on detected side effects: [`Abort] rejects; [`Proceed] carries on
    under the revised semantics of Section 2.1 (the update applies at
    every occurrence — automatic on the DAG representation) *)

type rejection =
  | Invalid of string  (** static DTD validation failed (§2.4) *)
  | Side_effects of int list
      (** aborted: these unselected occurrence parents would change *)
  | Untranslatable of string  (** no side-effect-free ΔR exists / found *)

type timings = {
  t_eval : float;  (** XPath evaluation on the DAG *)
  t_translate : float;  (** ΔX→ΔV, ΔV→ΔR, and executing both *)
  t_maintain : float;  (** Δ(M,L) maintenance (background in the paper) *)
}

type report = {
  delta_r : Group_update.t;
  selected : int list;  (** r[[p]] *)
  side_effects : int list;  (** nonempty iff the update had side effects *)
  timings : timings;
  sat_vars : int;
  sat_clauses : int;
  sat_encode_ms : float;
      (** insertion: template derivation + side-effect encoding *)
  sat_solve_ms : float;  (** insertion: SAT search + canonicalization *)
  sat_skeleton_hit : bool;
      (** insertion: the structural plan came from the engine cache *)
}

val pp_rejection : Format.formatter -> rejection -> unit
(** [Side_effects] prints the offending-parent count and a bounded prefix
    of the node ids (first 8, then an ellipsis) *)

val create : ?seed:int -> Atg.t -> Database.t -> t
(** publish σ(I) and build L and M. [seed] starts the WalkSAT seed
    sequence; it defaults to a fixed constant, so runs are deterministic
    unless a caller opts into a different stream. *)

val of_durable : ?seed:int -> Atg.t -> Database.t -> Store.t -> t
(** assemble an engine from recovered components — a deserialized base
    database and DAG store — rebuilding L ({!Topo.of_store}) and M
    ({!Reach.compute}) instead of republishing; the recovery entry point
    of [Rxv_persist]. [seed] must be the checkpoint's saved seed for
    deterministic continuation. *)

val attach_wal : t -> wal_hook -> unit
(** install the durability hook; replaces any previous one *)

val detach_wal : t -> unit

val apply : ?policy:policy -> t -> Xupdate.t -> (report, rejection) result
(** process one XML view update end to end; [policy] defaults to
    [`Proceed] *)

val query : t -> Rxv_xpath.Ast.path -> Dag_eval.result
(** read-only XPath evaluation on the current view: the path is
    compiled and evaluated on the live structures, as an update's path
    is. Nothing is kept between reads. *)

val live_src : t -> Dag_eval.src
(** the reader {!query} evaluates through: the live store and M, with
    the text lookup that anchors value filters over {!field-text_types}.
    Valid until the next mutation. *)

val to_tree : ?max_nodes:int -> t -> Rxv_xml.Tree.t
(** materialize the current (uncompressed) view *)

val check_consistency : t -> (unit, string) result
(** test oracle: the maintained view equals republication from the
    current database (canonically), L is valid and M matches a fresh
    Algorithm Reach run *)

(** The statistics of Fig. 10(b). *)
type stats = {
  n_nodes : int;
  n_edges : int;  (** |V| *)
  m_size : int;  (** |M| *)
  l_size : int;  (** |L| *)
  occurrences : int;  (** element occurrences in the uncompressed tree *)
  sharing : float;
      (** fraction of star-child instances with several parents — the
          statistic the paper reports as 31.4% for its dataset *)
  txn_depth : int;  (** open transaction frames ({!Txn.begin_} nesting) *)
  wal_records : int option;
      (** WAL records appended since the last checkpoint; [None] when no
          WAL is attached *)
  cache_hits : int;
      (** {!Snapshot.query} calls answered by the snapshot's memo, the
          one result cache ({!field-memo_hits}) *)
  cache_misses : int;
      (** XPath evaluations: live reads, update paths and snapshot memo
          misses ({!field-evaluations}) *)
  cache_partials : int;
      (** always 0: no read repairs an earlier result. The field stays
          only because perfbench (perfbench/src/inproc.ml), which
          changes only with the benchmark, reads it. *)
  live_reads : int;  (** queries answered on the live structures *)
  snapshot_reads : int;  (** queries answered on MVCC snapshots *)
  sat_skeleton_hits : int;
      (** insertion translations served by a cached CNF skeleton *)
  sat_skeleton_misses : int;  (** translations that built a skeleton *)
  sat_learned_kept : int;
      (** CDCL learned clauses retained across canonicalization probes *)
}

val stats : t -> stats

(** {2 Transactions}

    An engine transaction is one undo-journal frame on each mutable
    component (database, store, L, M) plus the saved seed: every
    mutation entry point records its exact inverse, so rollback replays
    O(Δ) inverse operations instead of restoring O(view) deep copies.
    Transactions nest; each handle must be resolved exactly once, with
    the innermost open frame resolved first. *)

module Txn : sig
  type handle

  val begin_ : t -> handle
  (** open a frame on every component and save the seed — O(1) *)

  val commit : t -> handle -> unit
  (** keep the frame's effects, folding its undo entries into any
      enclosing frame *)

  val abort : t -> handle -> unit
  (** roll the engine back to the matching {!begin_}, in O(Δ) *)
end

val reset_from : t -> Database.t -> Store.t -> seed:int -> unit
(** install recovered state (a shipped checkpoint) into a live engine in
    place: set the database and DAG store, rebuild L and M from the
    store (as {!of_durable} does), and adopt [seed]. The engine identity is preserved, so callers
    holding it behind a lock observe the new state on their next access
    — the replication follower's checkpoint-install path.
    @raise Invalid_argument if a transaction frame is open. *)

(** {2 MVCC snapshots}

    An immutable image of the committed view state — the frozen store
    and M views. XPath reads need nothing else; neither L nor the base
    database is captured. Capture costs O(nodes touched since the
    previous capture): the store keeps a persistent committed view and
    patches only its dirty nodes, and M's rows are shared
    copy-on-write. Reads against a snapshot take {e no} engine lock: the
    writer may mutate, commit and publish further snapshots
    concurrently, and the snapshot still answers from its own state. *)

module Snapshot : sig
  type engine := t
  type t

  val capture : engine -> t
  (** freeze the committed state. Must be called with no transaction
      frame open (the views would otherwise expose uncommitted rows);
      @raise Invalid_argument if a frame is open. *)

  val query : t -> Rxv_xpath.Ast.path -> Dag_eval.result
  (** XPath evaluation pinned to the snapshot, without locking the
      engine. A path's first read on the snapshot evaluates it on the
      frozen views; later reads of the same path are answered from the
      snapshot's memo. *)

  val stats : t -> stats
  (** the engine statistics as of the capture instant, derived from the
      frozen views (computed lazily and memoized, so capture itself
      stays O(touched)). Deterministic: repeated calls on one snapshot
      always agree, whatever the writer did since. *)
end

val apply_group :
  ?policy:policy -> t -> Xupdate.t list -> (report list, int * rejection) result
(** apply a list of updates atomically: on any rejection (or exception)
    the engine is rolled back to its pre-group state — O(Δ), via the
    undo journals — and the failing index returned *)

val dry_run : ?policy:policy -> t -> Xupdate.t -> (report, rejection) result
(** what would [u] do (including its ΔR)? — no state change; runs inside
    an always-aborted transaction frame, so the rollback costs O(Δ) *)
