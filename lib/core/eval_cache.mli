(** Generation-keyed incremental result cache for compiled XPath plans.

    Each entry keeps one plan's memoized cells ({!Dag_eval.tables}) and
    last result, stamped with the DAG generation it is valid at. The
    engine bumps the generation on every structural mutation and reports
    the nodes whose children changed; the cache dirties those nodes'
    slots *and their ancestors'* (via the reachability matrix M — a
    cell depends only on its node's descendants). A later query forgets
    the cells and text lengths of the dirty slots ({!Dag_eval.forget})
    and runs the top-down pass again, which recomputes only the cells it
    reads and finds unknown; no pass over L runs. Known cells are always
    exact, so the soundness argument is just that: the cells of dirty
    slots are forgotten, and every other cell is unchanged.

    Transactions: the generation never goes back. {!begin_}/{!commit}/
    {!abort} bracket a frame, and each open frame keeps one bitset, the
    rows its invalidations dirtied; commit and abort fold it into the
    enclosing frame. An abort is one more invalidation: it dirties the
    frame's rows in every entry and bumps the generation, so the next
    read repairs whatever a read inside the frame left behind. Reads
    inside a frame use the cache like any other read; only a miss after
    an open frame has written evaluates without filling an entry.

    Thread safety: one internal mutex serializes queries and
    invalidations, so snapshot reads on server handler threads and the
    writer thread's live queries can share one cache. Eviction is LRU,
    bounded by [cap]; a lost entry is just a later miss. *)

module Store = Rxv_dag.Store
module Reach = Rxv_dag.Reach
module Ast = Rxv_xpath.Ast

type t

type counters = {
  hits : int;  (** full hits: cached result returned as-is *)
  misses : int;  (** cold plans: new tables + top-down *)
  partials : int;  (** partial revalidations: forget dirty slots + top-down *)
  evictions : int;  (** LRU entry drops *)
  invalidations : int;  (** generation bumps (mutations seen) *)
  recomputed_cells : int;
      (** cells the top-down pass computed again in partial
          revalidations *)
}

val create : ?cap:int -> unit -> t
(** [cap] bounds the number of cached plans (default 64, min 1) *)

val query : t -> Dag_eval.src -> Ast.path -> Dag_eval.result
(** evaluate through the cache, reading the live structures through
    [src] ({!Dag_eval.live_src}). Full hit when the entry is current;
    partial revalidation when some slots are dirty; new tables on a cold
    plan. A cold plan read after an open transaction frame has
    invalidated is evaluated fresh and left uncached. *)

val query_src : t -> Dag_eval.src -> generation:int -> Ast.path -> Dag_eval.result
(** MVCC snapshot read: evaluate through [src] (the frozen views of
    [generation]) without any lock on the live structures. When
    [generation] is still current the read shares the cache's full
    machinery — hit, promote, even partial revalidation — because the
    views equal the live state at that generation. Pinned to an older
    generation, it serves a cached result only if the entry is valid at
    exactly that generation and otherwise evaluates the views fresh,
    never mutating an entry backwards. *)

val invalidate :
  t -> store:Store.t -> reach:Reach.t -> touched:int list ->
  freed_slots:int list -> unit
(** note a structural mutation, committed or inside a frame: bump the
    generation and dirty the rows of [touched] nodes and their ancestors
    (per the *post-update* M), plus the recycled [freed_slots].
    [touched] must hold every node whose children changed and every node
    the mutation created; the rows of other nodes below them keep their
    values. Dead ids in [touched] contribute nothing. *)

val invalidate_all : t -> slot_capacity:int -> unit
(** conservative variant for when the touched set is unknown: dirty every
    slot in [0, slot_capacity). Only two paths
    need it: [Engine.reset_from], which installs a whole new state, and
    a base update rolled back for forming a cycle, whose repair runs the
    garbage collector. The next read of each entry then forgets every
    cell. *)

val begin_ : t -> unit
(** open a (possibly nested) transaction frame *)

val commit : t -> unit
(** keep the frame's effects (folding into any parent frame) *)

val abort : t -> unit
(** the state has been rolled back to the matching {!begin_}: dirty
    every row the frame's invalidations dirtied, in every entry, and
    bump the generation (nothing if the frame dirtied no row) *)

val generation : t -> int
val counters : t -> counters
