(** Two-pass XPath evaluation on DAG-compressed views (Section 3.2).

    Bottom-up: the paper's dynamic program over L and the sub-expression
    order of filters, computing val(q, v) and (through the // recurrence)
    desc(q, v) per filter suffix — here cell by cell, each computed the
    first time it is read and memoized; no pass runs over L for it.
    Top-down: forward frontiers C_i, refined backward into the nodes on
    successful matches, yielding r[[p]], the arrival edges Ep(r) and the
    side-effect set S. A [//] step followed by a label step [a] takes
    the [a] nodes below C_i from M instead of walking the DAG.

    Anchors: a value filter [l = "s"] over a label whose nodes are
    childless text nodes holds at exactly the parents of the l nodes
    with text s. When the {!src} names those nodes, a label or routed
    [//] step followed by such a filter starts from them instead of from
    the frontier's children or from all [a] nodes. A plan with
    anchored value filters pays for the nodes its path touches; the
    worst case stays O(|p|·|V|).

    Value filters (p = "s") compare XPath string values via a text-length
    DP (lengths saturate just above the plan's longest comparison string)
    with on-demand bounded materialization, avoiding quadratic text
    concatenation.

    The side-effect check is edge-granular and conservative: it may
    over-approximate on views where one node plays several distinct step
    roles, but it never misses a deviating occurrence entering the matched
    region (property-tested soundness).

    Paths execute as compiled {!Plan.t} opcodes. The memoized cells live
    in {!tables} for one evaluation. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
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

(** {2 The view reader}

    Both passes read (store, L, M) through a first-class {!src} record,
    so the same evaluator runs against the live mutable structures
    ({!live_src}) or against the frozen views captured by
    {!Store.freeze}/{!Topo.freeze}/{!Reach.freeze} ({!view_src}) — the
    MVCC snapshot read path. The three views must have been frozen at
    the same quiescent instant. *)

type src

type text_nodes = string -> string -> int list option
(** [text_nodes l s]: for a label [l] whose nodes are childless and
    carry text, [Some] of the [l] nodes whose text is [s] (in an ATG
    view, at most one); [None] for labels without a lookup. A lookup
    must answer for the state the reader reads. *)

val live_src : text_nodes:text_nodes -> Store.t -> Topo.t -> Reach.t -> src
(** [fun _ _ -> None] for [text_nodes] anchors no value filter *)

val view_src :
  text_nodes:text_nodes -> Store.view -> Topo.view -> Reach.view -> src

val eval_plan_src : src -> Plan.t -> result
(** evaluate the plan from the root of the view, on new tables *)

(** {2 Memoized cells}

    [tables] holds a plan's cells for one evaluation: per (filter,
    suffix) two bitsets over node slots, [known] and [value], where a
    known cell is exact, and the text lengths of nodes with children, by
    slot. {!eval_plan_src} is {!top_down_src} on new tables; the two
    are apart so that a caller can count the cells an evaluation
    computed. *)

type tables

val create_tables : Plan.t -> tables
(** empty tables shaped for the plan's filter suffixes *)

val top_down_src : src -> Plan.t -> tables -> result
(** the top-down pass; computes and memoizes each cell it reads *)

val cells_computed : tables -> int
(** cells computed in these tables so far (a memoized read is not
    counted) *)
