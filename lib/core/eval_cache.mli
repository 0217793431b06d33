(** Generation-keyed incremental result cache for compiled XPath plans.

    Each entry keeps one plan's bottom-up DP tables ({!Dag_eval.tables})
    and last result, stamped with the DAG generation it is valid at. The
    engine bumps the generation on every structural mutation and reports
    the touched nodes; the cache dirties those nodes' rows *and their
    ancestors'* (via the reachability matrix M — a node's bottom-up value
    depends only on its descendants), so a later query repairs just the
    dirty rows with {!Dag_eval.revalidate} and replays the cheap top-down
    pass instead of re-running the full O(|p|·|V|) DP.

    Transactions: dirty marks and the generation are guarded by the same
    undo-journal discipline as the store and M — {!begin_}/{!commit}/
    {!abort} bracket a frame; [invalidate] copy-on-writes each entry's
    dirty bitset into the journal, so an abort restores exactly the
    pre-frame marks. While a frame is open ({!recording}) {e and has
    already invalidated}, queries bypass the cache entirely — no entry
    is ever stamped with a generation that an abort could resurrect for
    a different state, which is what makes generation restore sound.
    Before the frame's first invalidation nothing has mutated — the live
    state still is the committed generation — so queries keep the
    cache's full benefit; in particular the first update of a group
    ([Engine.apply_group], hence every server-side write) evaluates its
    target path through warm tables instead of a cold full DP.

    Thread safety: one internal mutex serializes queries and
    invalidations, so snapshot reads on server handler threads and the
    writer thread's live queries can share one cache. Eviction is LRU, bounded
    by [cap]; an entry inserted or evicted in a clean frame needs no
    journaling — it describes committed state that an abort cannot
    change, and a lost entry is just a later miss. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Ast = Rxv_xpath.Ast

type t

type counters = {
  hits : int;  (** full hits: cached result returned as-is *)
  misses : int;  (** cold compiles + full DP fills *)
  partials : int;  (** partial revalidations: dirty rows + top-down *)
  evictions : int;  (** LRU entry drops *)
  invalidations : int;  (** generation bumps (mutations seen) *)
}

val create : ?cap:int -> unit -> t
(** [cap] bounds the number of cached plans (default 64, min 1) *)

val query : t -> Store.t -> Topo.t -> Reach.t -> Ast.path -> Dag_eval.result
(** evaluate through the cache. Full hit when the entry is current;
    partial revalidation when only some rows are dirty; full fill on a
    cold plan. Falls back to a fresh, uncached {!Dag_eval.eval} while a
    transaction frame is open and has already invalidated (a still-clean
    frame reads committed state, so it keeps the cache). *)

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
(** note a committed-or-pending structural mutation: bump the generation
    and dirty the rows of [touched] nodes and their ancestors (per the
    *post-update* M), plus the recycled [freed_slots]. Dead ids in
    [touched] contribute no row but still flush the text-length memo. *)

val invalidate_all : t -> slot_capacity:int -> unit
(** conservative variant for bulk rebuilds (base-relation updates):
    dirty every slot in [0, slot_capacity) and flush all text memos *)

val begin_ : t -> unit
(** open a (possibly nested) transaction frame *)

val commit : t -> unit
(** keep the frame's effects (folding into any parent frame) *)

val abort : t -> unit
(** restore the generation and every dirty bitset touched since the
    matching {!begin_} *)

val recording : t -> bool
(** is a transaction frame open? (queries bypass the cache once the
    frame has invalidated) *)

val generation : t -> int
val counters : t -> counters
