(** Two-pass XPath evaluation on DAG-compressed views (Section 3.2).

    Bottom-up: dynamic programming over the topological order L and the
    sub-expression order of filters, computing the paper's val(q, v) and
    (through the // recurrence) desc(q, v) per filter suffix. Each row is
    computed only at the label all of its readers look at: the row after
    a label step [a] (unless the next step is [//]), the rows after a
    filter that follows such a label, and row 0 of a filter referenced
    only after one label. Top-down: forward frontiers C_i, refined
    backward into the nodes on successful matches, yielding r[[p]], the
    arrival edges Ep(r) and the side-effect set S. A [//] step followed
    by a label step [a] takes the [a] nodes below C_i from M, with
    candidates from the next filter's row 0 or from a label row, instead
    of walking the DAG. Both passes are O(|p|·|V|) in the worst case.

    Value filters (p = "s") compare XPath string values via a text-length
    DP (lengths saturate just above the plan's longest comparison string)
    with on-demand bounded materialization, avoiding quadratic text
    concatenation.

    The side-effect check is edge-granular and conservative: it may
    over-approximate on views where one node plays several distinct step
    roles, but it never misses a deviating occurrence entering the matched
    region (property-tested soundness).

    Paths execute as compiled {!Plan.t} opcodes. The two passes are
    exposed separately, with the bottom-up DP state reified as {!tables},
    so {!Eval_cache} can keep tables alive across queries and repair only
    the dirty rows after an update ({!revalidate_src}). [eval] remains the
    one-shot entry point: compile, fill, refine. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Ast = Rxv_xpath.Ast
module Plan = Rxv_xpath.Plan

type result = {
  selected : int list;  (** r[[p]], as node ids *)
  selected_types : (string * int) list;  (** (type, id), as in §3.2 *)
  arrival_edges : (int * int) list;
      (** Ep(r): for each selected v, the DAG edges (u, v) through which
          some match of p reaches v — what Xdelete removes *)
  side_effects : int list;
      (** S for insertions: parents witnessing an occurrence of a selected
          node that p does not select; nonempty iff inserting under r[[p]]
          is visible at unselected occurrences (Section 2.1) *)
  side_effects_delete : int list;
      (** S for deletions (⊆ [side_effects]): parents witnessing an
          occurrence of an *arrival parent* that p does not reach — the
          paper's deletion side effects constrain the parents u of Ep(r),
          not the selected nodes themselves (takenBy2 keeps student2 in
          Example 5 without any side effect) *)
  zero_move_match : bool;
      (** some match ends without traversing any edge (e.g. selects the
          root); such selections cannot be deleted *)
}

val eval : Store.t -> Topo.t -> Reach.t -> Ast.path -> result
(** evaluate from the root of the view *)

(** {2 The view reader}

    Both passes read (store, L, M) through a first-class {!src} record,
    so the same evaluator runs against the live mutable structures
    ({!live_src}) or against the frozen views captured by
    {!Store.freeze}/{!Topo.freeze}/{!Reach.freeze} ({!view_src}) — the
    MVCC snapshot read path. The three views must have been frozen at
    the same quiescent instant. *)

type src

val live_src : Store.t -> Topo.t -> Reach.t -> src
val view_src : Store.view -> Topo.view -> Reach.view -> src

val eval_plan_src : src -> Plan.t -> result

(** {2 Decoupled passes — the cacheable DP state}

    [tables] holds a plan's bottom-up state: its gate table, the
    per-(filter, suffix) satisfiability bitsets over node slots (exact at
    their gate label, stale elsewhere), the label rows its [//] steps
    read, plus the memoized text lengths of nodes with children. Fill
    with {!bottom_up_src}, answer with {!top_down_src}; after an update,
    repair the rows of changed nodes and their ancestors, text lengths
    included, with {!revalidate_src}. *)

type tables

val create_tables : Plan.t -> tables
(** empty tables shaped for the plan's filter suffixes, with the plan's
    gate table *)

val bottom_up_src : src -> Plan.t -> tables -> unit
(** DP fill over L (leaves first), each row at its gate label *)

val revalidate_src : src -> Plan.t -> tables -> dirty:Rxv_dag.Bitset.t -> int
(** recompute only the rows whose slot is set in [dirty], children before
    parents, in time proportional to the dirty rows and their edges (L is
    not scanned); returns how many rows it recomputed. Sound iff [dirty]
    covers every node whose sat value may have changed: the updated nodes
    and all their ancestors (a node's row depends only on its
    descendants), plus any slot whose occupant was removed. Each
    recomputed row's text length is measured again. *)

val top_down_src : src -> Plan.t -> tables -> result
(** the top-down refinement, reading filled (or revalidated) tables *)

val drop_text_len : tables -> int -> unit
(** forget the memoized text length of one node (by id), e.g. of a
    deleted node, whose entry no revalidation would free *)

val reset_text_len : tables -> unit
(** forget all memoized text lengths, e.g. when the ids may now name
    other nodes *)
