(** Two-pass evaluation of XPath on a DAG-compressed view (Section 3.2).

    The bottom-up pass computes, for nodes v (in the leaves-first
    topological order L) and every suffix of every path filter, whether the
    suffix can be satisfied starting at v — the paper's val(q, v) — and,
    through the // recurrence, desc(q, v). Filters are processed in
    sub-expression (topological Q) order, so every value needed is
    available when read: dynamic programming over L × Q.

    A row is computed only at the label all of its readers look at. A
    gate table, built once per plan, names that label: row i after a
    label step [a] (unless step i is [//], whose recurrence reads the row
    at children of any label), the rows after a filter step that follows
    such a label, and row 0 when every reference to the filter sits after
    the same label. A gated row's bits at other labels are stale and
    never read.

    The top-down pass computes the forward frontiers C_i, refines them
    backwards into B_i (nodes on *successful* matches), and derives

    - r[[p]]: the selected nodes;
    - Ep(r): the arrival edges — for each selected v, the DAG edges (u, v)
      through which some match of p reaches v (what Xdelete removes);
    - the side-effect sets of Section 2.1, via a per-step backward
      propagation that verifies every occurrence of every arrival parent
      matches the path prefix. Deletions and insertions get separate
      sets: deleting the Ep(r) edges changes the children lists of the
      *parents* u, so their occurrences are constrained; inserting under
      r[[p]] changes the selected nodes themselves, additionally requiring
      every parent edge of a selected node to be an arrival edge. The
      analysis is conservative (node- rather than path-granular, so a
      flagged parent may in rare shapes still carry the prefix through a
      different decomposition of p) but never misses a deviating
      occurrence — property-tested on adversarial DAGs.

    A [//] step followed by a label step [a] is answered through M, as
    the paper's top-down pass answers descendant questions, instead of a
    walk: the a nodes below C_i are the candidates whose ancestor row
    meets C_i. Candidates are bits the tables hold on live and snapshot
    reads alike: the next filter's row 0 when that filter has a path
    conjunct, else a label row for [a] that the bottom-up pass fills. A
    candidate counts only if its slot's occupant has label [a]. B_{i+1}
    is then refined backwards through parents. The walk stays for a [//]
    followed by [*], by a filter, or by nothing.

    Both passes stay O(|p|·|V|) in the worst case; the gates and the M
    route make them pay only for what a plan reads.

    Value filters (p = "s") compare the XPath string value. Comparing
    every node's full text would be quadratic, so equality is decided by a
    text-length DP with on-demand bounded materialization.

    Paths execute as compiled {!Plan.t} opcodes, and the two passes are
    decoupled through the {!tables} type so that {!Eval_cache} can keep
    the bottom-up tables alive across queries: a cache hit replays only
    the top-down refinement, and after an update only the dirty rows
    (changed nodes and their ancestors) are recomputed with
    {!revalidate_src}.

    Both passes read the view through a {!src} record — a first-class
    reader over (store, L, M). {!live_src} binds it to the mutable
    structures; {!view_src} binds it to the frozen views of
    {!Store.freeze}/{!Topo.freeze}/{!Reach.freeze}, which is how MVCC
    snapshot reads evaluate against a committed generation while the
    live engine keeps mutating. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Bitset = Rxv_dag.Bitset
module Ast = Rxv_xpath.Ast
module Plan = Rxv_xpath.Plan

type result = {
  selected : int list;  (** r[[p]], as node ids *)
  selected_types : (string * int) list;  (** (type, id) pairs, as in §3.2 *)
  arrival_edges : (int * int) list;  (** Ep(r) *)
  side_effects : int list;
      (** S for insertions: parents witnessing an occurrence of a selected
          node that p does not select *)
  side_effects_delete : int list;
      (** S for deletions (⊆ [side_effects]): parents witnessing an
          occurrence of an arrival parent that p does not reach *)
  zero_move_match : bool;
      (** some match ends without traversing any edge (e.g. selects the
          root); such selections cannot be deleted *)
}

(* ---- the view reader ---- *)

type src = {
  s_node : int -> Store.node;
  s_children : int -> int list;
  s_parents : int -> int list;
  s_root : unit -> int;
  s_iter_topo : (int -> unit) -> unit;  (** forward L order: leaves first *)
  s_slot_of : int -> int;
  s_id_of_slot : int -> int option;
  s_anc_intersects : int -> Bitset.t -> bool;  (** by node id *)
  s_union_row_into : int -> dst:Bitset.t -> unit;  (** by node id *)
}

let live_src (store : Store.t) (l : Topo.t) (m : Reach.t) : src =
  {
    s_node = (fun id -> Store.node store id);
    s_children = (fun id -> Store.children store id);
    s_parents = (fun id -> Store.parents store id);
    s_root = (fun () -> Store.root store);
    s_iter_topo = (fun f -> Topo.iter f l);
    s_slot_of = (fun id -> Reach.slot_of m id);
    s_id_of_slot = (fun slot -> Store.id_of_slot store slot);
    s_anc_intersects = (fun id bits -> Reach.anc_intersects m id bits);
    s_union_row_into = (fun id ~dst -> Reach.union_row_into m id ~dst);
  }

let view_src (sv : Store.view) (tv : Topo.view) (rv : Reach.view) : src =
  let slot_of id = (Store.view_node sv id).Store.slot in
  {
    s_node = (fun id -> Store.view_node sv id);
    s_children = (fun id -> Store.view_children sv id);
    s_parents = (fun id -> Store.view_parents sv id);
    s_root = (fun () -> Store.view_root sv);
    s_iter_topo = (fun f -> Topo.view_iter f tv);
    s_slot_of = slot_of;
    s_id_of_slot = (fun slot -> Store.view_id_of_slot sv slot);
    s_anc_intersects =
      (fun id bits -> Reach.view_anc_intersects rv (slot_of id) bits);
    s_union_row_into =
      (fun id ~dst -> Reach.view_union_row_into rv (slot_of id) ~dst);
  }

(* ---- text equality via length DP ----

   Lengths saturate at [cap] + 1, where [cap] is the longest string the
   plan compares with: a comparison needs the exact length only up to
   there, so a node's sum over its children stops as soon as it passes
   [cap], and a node with many children (the root) costs O(cap) lookups
   rather than one per child. A childless node's length is its own
   text's, so only nodes with children are memoized. *)

let rec text_len src lens ~cap id =
  match Hashtbl.find_opt lens id with
  | Some l -> l
  | None -> (
      let n = src.s_node id in
      let own =
        match n.Store.text with Some s -> String.length s | None -> 0
      in
      match src.s_children id with
      | [] -> min own (cap + 1)
      | kids ->
          let l = sum_text_lens src lens ~cap own kids in
          Hashtbl.replace lens id l;
          l)

and sum_text_lens src lens ~cap acc = function
  | c :: rest when acc <= cap ->
      sum_text_lens src lens ~cap (acc + text_len src lens ~cap c) rest
  | _ -> min acc (cap + 1)

let text_eq src lens ~cap id s =
  if text_len src lens ~cap id <> String.length s then false
  else begin
    let buf = Buffer.create (String.length s) in
    let rec go id =
      let n = src.s_node id in
      (match n.Store.text with
      | Some t -> Buffer.add_string buf t
      | None -> ());
      List.iter go (src.s_children id)
    in
    go id;
    String.equal (Buffer.contents buf) s
  end

(* ---- gates: where each row is read ----

   Row i of a filter is read by row i − 1 and, when step i is [//], by
   its own recurrence at children of any label; row 0 is read wherever
   the filter is referenced. After a label step [a] every reader looks
   at [a] nodes only, so the row is computed at [a] nodes only and its
   bits at other labels are never read. Label ids index the plan's
   [labels]; -1 stands for "any label". *)

(* the label of every node reached after steps 0..j−1, given the label
   [at0] of the node the steps start from *)
let rec lead steps ~at0 j =
  if j = 0 then at0
  else
    match steps.(j - 1) with
    | Plan.S_label a -> a
    | Plan.S_filter _ -> lead steps ~at0 (j - 1)
    | Plan.S_wild | Plan.S_desc -> -1

let row_gate steps ~at0 i =
  if i < Array.length steps && steps.(i) = Plan.S_desc then -1
  else lead steps ~at0 i

let rec iter_paths f = function
  | Plan.F_path k -> f k
  | Plan.F_and (x, y) | Plan.F_or (x, y) ->
      iter_paths f x;
      iter_paths f y
  | Plan.F_not x -> iter_paths f x
  | Plan.F_label _ -> ()

(* a filter k such that q implies row 0 of k, or -1 *)
let rec path_conjunct = function
  | Plan.F_path k -> k
  | Plan.F_and (x, y) ->
      let k = path_conjunct x in
      if k >= 0 then k else path_conjunct y
  | Plan.F_label _ | Plan.F_or _ | Plan.F_not _ -> -1

(* gate.(k).(i): the label at which row i of filter k is computed. Row 0
   is gated at a label when every reference to filter k sits after it.
   References point from later filters and the outer path to earlier
   filters, so filters are gated last to first. *)
let gates (p : Plan.t) =
  let npf = Array.length p.Plan.pfilters in
  (* -2 until the first reference is seen *)
  let row0 = Array.make npf (-2) in
  let note_refs steps ~at0 =
    Array.iteri
      (fun j -> function
        | Plan.S_filter q ->
            let r = lead steps ~at0 j in
            iter_paths
              (fun k ->
                row0.(k) <- (if row0.(k) = -2 || row0.(k) = r then r else -1))
              q
        | Plan.S_label _ | Plan.S_wild | Plan.S_desc -> ())
      steps
  in
  note_refs p.Plan.outer ~at0:(-1);
  let gate = Array.make npf [||] in
  for k = npf - 1 downto 0 do
    let steps = p.Plan.pfilters.(k).Plan.steps in
    let at0 = max row0.(k) (-1) in
    gate.(k) <- Array.init (Array.length steps + 1) (row_gate steps ~at0);
    note_refs steps ~at0
  done;
  gate

(* ---- bottom-up tables ---- *)

(* sat.(k).(i) : per path-filter k and suffix start i, a bitset over node
   slots; bit set ⟺ steps i..n of filter k are satisfiable at the node.
   A row gated at a label holds that at the label's nodes; its bits at
   other labels and at freed slots are stale.
   lens memoizes the text-length DP of nodes with children, keyed by node
   id, saturated at len_cap + 1 (len_cap: the plan's longest comparison
   string). [revalidate_src] forgets the length of each row it
   recomputes, just before recomputing it, since the node's subtree text
   may have changed; pure recomputation repopulates it on demand. *)
type tables = {
  sat : Bitset.t array array;
  gate : int array array;  (** see {!gates} *)
  label_rows : (int * Bitset.t) array;
      (** (a, the slots of a nodes), for each label a that a [//] route
          reads and no filter row covers; like a gated row, stale at
          other labels and at freed slots *)
  route : (int * Bitset.t) option array;
      (** for an outer [//] at i followed by a label step a:
          [Some (a, bits)], where [bits] is a label row for a, or row 0
          of a path conjunct of the filter after the label step; either
          way its bits at a nodes cover every a node the route keeps *)
  computes_at : bool array;
      (** index a + 1: does some row compute at label a (index 0: at
          labels the plan does not name)? *)
  lens : (int, int) Hashtbl.t;
  len_cap : int;
}

let create_tables (p : Plan.t) =
  let sat =
    Array.map
      (fun pf ->
        Array.init (Array.length pf.Plan.steps + 1) (fun _ -> Bitset.create ()))
      p.Plan.pfilters
  in
  let gate = gates p in
  let outer = p.Plan.outer in
  let n = Array.length outer in
  let label_rows = ref [] in
  let label_row a =
    match List.assoc_opt a !label_rows with
    | Some bits -> bits
    | None ->
        let bits = Bitset.create () in
        label_rows := (a, bits) :: !label_rows;
        bits
  in
  let step j = if j < n then Some outer.(j) else None in
  let route =
    Array.init n (fun i ->
        match (outer.(i), step (i + 1), step (i + 2)) with
        | Plan.S_desc, Some (Plan.S_label a), Some (Plan.S_filter q)
          when path_conjunct q >= 0 ->
            Some (a, sat.(path_conjunct q).(0))
        | Plan.S_desc, Some (Plan.S_label a), _ -> Some (a, label_row a)
        | _ -> None)
  in
  let label_rows = Array.of_list !label_rows in
  let computes_at =
    Array.init
      (Array.length p.Plan.labels + 1)
      (fun x ->
        Array.exists (Array.exists (fun g -> g = -1 || g = x - 1)) gate
        || Array.exists (fun (a, _) -> a = x - 1) label_rows)
  in
  {
    sat;
    gate;
    label_rows;
    route;
    computes_at;
    lens = Hashtbl.create 16;
    len_cap =
      Array.fold_left
        (fun acc pf ->
          match pf.Plan.target with
          | Plan.T_text_eq s -> max acc (String.length s)
          | Plan.T_exists -> acc)
        0 p.Plan.pfilters;
  }

let drop_text_len tb id = Hashtbl.remove tb.lens id
let reset_text_len tb = Hashtbl.reset tb.lens

(* the plan's id for a node's label, or -1 *)
let label_id (p : Plan.t) etype =
  let rec go a =
    if a < 0 || String.equal p.Plan.labels.(a) etype then a else go (a - 1)
  in
  go (Array.length p.Plan.labels - 1)

let filter_holds (p : Plan.t) (tb : tables) src (q : Plan.filter) id : bool =
  let rec go = function
    | Plan.F_label a ->
        String.equal (src.s_node id).Store.etype p.Plan.labels.(a)
    | Plan.F_and (x, y) -> go x && go y
    | Plan.F_or (x, y) -> go x || go y
    | Plan.F_not x -> not (go x)
    | Plan.F_path k -> Bitset.get tb.sat.(k).(0) (src.s_node id).Store.slot
  in
  go q

(* is some child's bit set in [row] — of a child labeled [name], for
   [some_kid_named]? *)
let rec some_kid src row = function
  | [] -> false
  | u :: rest ->
      Bitset.get row (src.s_node u).Store.slot || some_kid src row rest

let rec some_kid_named src row name = function
  | [] -> false
  | u :: rest ->
      let nu = src.s_node u in
      (String.equal nu.Store.etype name && Bitset.get row nu.Store.slot)
      || some_kid_named src row name rest

(* recompute the rows gated at node [n]'s label (label id [lbl]) and the
   ungated ones, absolutely: bits are cleared as well as set, so the same
   code serves the initial fill (clears are no-ops on fresh bitsets) and
   dirty-row revalidation after updates *)
let recompute_node (p : Plan.t) (tb : tables) src (n : Store.node) lbl kids =
  let v = n.Store.id and slot = n.Store.slot in
  for j = 0 to Array.length tb.label_rows - 1 do
    let a, bits = tb.label_rows.(j) in
    if a = lbl then Bitset.set bits slot
  done;
  for k = 0 to Array.length p.Plan.pfilters - 1 do
    let pf = p.Plan.pfilters.(k) in
    let steps = pf.Plan.steps and gate = tb.gate.(k) and rows = tb.sat.(k) in
    for i = Array.length steps downto 0 do
      if gate.(i) = -1 || gate.(i) = lbl then begin
        let holds =
          if i = Array.length steps then
            match pf.Plan.target with
            | Plan.T_exists -> true
            | Plan.T_text_eq s -> text_eq src tb.lens ~cap:tb.len_cap v s
          else
            match steps.(i) with
            | Plan.S_filter q ->
                filter_holds p tb src q v && Bitset.get rows.(i + 1) slot
            | Plan.S_label a ->
                some_kid_named src rows.(i + 1) p.Plan.labels.(a) kids
            | Plan.S_wild -> some_kid src rows.(i + 1) kids
            | Plan.S_desc ->
                Bitset.get rows.(i + 1) slot || some_kid src rows.(i) kids
        in
        if holds then Bitset.set rows.(i) slot else Bitset.clear rows.(i) slot
      end
    done
  done

let bottom_up_src (src : src) (p : Plan.t) (tb : tables) : unit =
  src.s_iter_topo (fun v ->
      let n = src.s_node v in
      let lbl = label_id p n.Store.etype in
      if tb.computes_at.(lbl + 1) then
        recompute_node p tb src n lbl (src.s_children v))

(* Recompute only the rows whose slot is in [dirty], by a post-order
   walk over children restricted to the dirty set: a dirty node is
   recomputed after its dirty children, and its clean children's rows are
   valid as they stand. Rows of clean nodes are untouched: the dirty set
   must contain every node whose sat value can have changed (the changed
   nodes and all their ancestors — a node's value depends only on its
   descendants). A dirty slot with no occupant (freed, not yet reused)
   has no row to recompute. A dirty node's text length is forgotten
   before its row is recomputed: its dirty descendants have been
   re-measured by then, and a clean node's subtree text is unchanged.
   Returns the number of rows recomputed. *)
let revalidate_src (src : src) (p : Plan.t) (tb : tables)
    ~(dirty : Bitset.t) : int =
  let done_ = Bitset.create () in
  let rows = ref 0 in
  let rec visit (n : Store.node) =
    Bitset.set done_ n.Store.slot;
    let kids = src.s_children n.Store.id in
    visit_dirty kids;
    Hashtbl.remove tb.lens n.Store.id;
    recompute_node p tb src n (label_id p n.Store.etype) kids;
    incr rows
  and visit_dirty = function
    | [] -> ()
    | u :: rest ->
        let nu = src.s_node u in
        let su = nu.Store.slot in
        if Bitset.get dirty su && not (Bitset.get done_ su) then visit nu;
        visit_dirty rest
  in
  Bitset.iter_bits dirty (fun slot ->
      if not (Bitset.get done_ slot) then
        match src.s_id_of_slot slot with
        | Some v -> visit (src.s_node v)
        | None -> ());
  !rows

(* ---- top-down pass ---- *)

module IdSet = struct
  type t = (int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add (s : t) id = Hashtbl.replace s id ()
  let mem (s : t) id = Hashtbl.mem s id
  let iter f (s : t) = Hashtbl.iter (fun id () -> f id) s
  let cardinal (s : t) = Hashtbl.length s
  let to_list (s : t) = Hashtbl.fold (fun id () acc -> id :: acc) s []
  let of_list ids =
    let s = create () in
    List.iter (add s) ids;
    s
end

(* the slot set of an id set — queries against M become word-wise *)
let slots_of src (s : IdSet.t) =
  let bits = Bitset.create () in
  IdSet.iter (fun id -> Bitset.set bits (src.s_slot_of id)) s;
  bits

(* is [id] a member or descendant of [base]? [base_bits] is base's slot
   set (built once per fixed base): one word-wise intersection against
   [id]'s ancestor row *)
let in_desc_or_self src (base : IdSet.t) base_bits id =
  IdSet.mem base id || src.s_anc_intersects id base_bits

let top_down_src (src : src) (p : Plan.t) (tb : tables) : result =
  let root = src.s_root () in
  let nsteps = Array.length p.Plan.outer in
  let outer = p.Plan.outer in
  (* forward frontiers; frontier.(i) = C_i. A [//] at i with a route
     (step i+1 is a label step a) leaves C_{i+1} empty and fills C_{i+2}
     directly: the route's candidates whose slot holds an a (the bits
     are stale elsewhere) and whose ancestor row in M meets C_i *)
  let frontier = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  IdSet.add frontier.(0) root;
  let i = ref 0 in
  while !i < nsteps do
    let prev = frontier.(!i) and next = frontier.(!i + 1) in
    (match tb.route.(!i) with
    | Some (a, cands) ->
        let name = p.Plan.labels.(a) in
        let prev_bits = slots_of src prev in
        let after = frontier.(!i + 2) in
        Bitset.iter_bits cands (fun slot ->
            match src.s_id_of_slot slot with
            | Some c
              when String.equal (src.s_node c).Store.etype name
                   && src.s_anc_intersects c prev_bits ->
                IdSet.add after c
            | Some _ | None -> ());
        incr i
    | None -> (
        match outer.(!i) with
        | Plan.S_filter q ->
            IdSet.iter
              (fun v -> if filter_holds p tb src q v then IdSet.add next v)
              prev
        | Plan.S_label a ->
            let name = p.Plan.labels.(a) in
            IdSet.iter
              (fun v ->
                List.iter
                  (fun u ->
                    if String.equal (src.s_node u).Store.etype name then
                      IdSet.add next u)
                  (src.s_children v))
              prev
        | Plan.S_wild ->
            IdSet.iter
              (fun v -> List.iter (IdSet.add next) (src.s_children v))
              prev
        | Plan.S_desc ->
            let rec go u =
              if not (IdSet.mem next u) then begin
                IdSet.add next u;
                List.iter go (src.s_children u)
              end
            in
            IdSet.iter go prev));
    incr i
  done;
  (* backward refinement; back.(i) = B_i ⊆ C_i: nodes on successful
     matches *)
  let back = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  IdSet.iter (IdSet.add back.(nsteps)) frontier.(nsteps);
  for i = nsteps - 1 downto 0 do
    let bi1 = back.(i + 1) and bi = back.(i) in
    match outer.(i) with
    | Plan.S_filter _ -> IdSet.iter (IdSet.add bi) bi1
    | Plan.S_label _ when i >= 1 && Option.is_some tb.route.(i - 1) ->
        (* C_i = desc-or-self(C_{i-1}) was not built: B_i is the parents
           of B_{i+1} in it *)
        let base = frontier.(i - 1) in
        let base_bits = slots_of src base in
        IdSet.iter
          (fun v ->
            List.iter
              (fun w ->
                if in_desc_or_self src base base_bits w then IdSet.add bi w)
              (src.s_parents v))
          bi1
    | Plan.S_label _ | Plan.S_wild ->
        IdSet.iter
          (fun w ->
            if List.exists (IdSet.mem bi1) (src.s_children w) then
              IdSet.add bi w)
          frontier.(i)
    | Plan.S_desc ->
        (* w ∈ B_i iff w is an ancestor-or-self of some node of B_{i+1}:
           OR the targets' ancestor rows into one slot set, then each
           membership test is a bit test *)
        let bits = slots_of src bi1 in
        IdSet.iter (fun id -> src.s_union_row_into id ~dst:bits) bi1;
        IdSet.iter
          (fun w ->
            if Bitset.get bits (src.s_slot_of w) then IdSet.add bi w)
          frontier.(i)
  done;
  let selected = IdSet.to_list back.(nsteps) in
  (* ---- Ep(r): arrival edges ---- *)
  let arrival = Hashtbl.create 64 in
  let active = ref (IdSet.of_list selected) in
  let zero_move = ref false in
  let i = ref nsteps in
  let continue = ref true in
  while !continue && !i >= 1 do
    let step = outer.(!i - 1) in
    let bprev = back.(!i - 1) in
    (match step with
    | Plan.S_filter _ -> decr i
    | Plan.S_label _ | Plan.S_wild ->
        IdSet.iter
          (fun v ->
            List.iter
              (fun u ->
                if IdSet.mem bprev u then Hashtbl.replace arrival (u, v) !i)
              (src.s_parents v))
          !active;
        continue := false
    | Plan.S_desc ->
        let bprev_bits = slots_of src bprev in
        IdSet.iter
          (fun v ->
            List.iter
              (fun u ->
                if in_desc_or_self src bprev bprev_bits u then
                  Hashtbl.replace arrival (u, v) !i)
              (src.s_parents v))
          !active;
        let pass = IdSet.create () in
        IdSet.iter
          (fun v -> if IdSet.mem bprev v then IdSet.add pass v)
          !active;
        active := pass;
        decr i);
    if IdSet.cardinal !active = 0 then continue := false
  done;
  if !i = 0 && IdSet.cardinal !active > 0 then zero_move := true;
  (* ---- side-effect sets (Section 2.1) ----

     A deletion removes the arrival edges (u, v): it is side-effect free
     iff EVERY occurrence of every arrival parent u is itself an arrival
     occurrence, i.e. every root-path to u matches the prefix of p up to
     the edge's step. An insertion appends under the selected nodes: it
     additionally needs every parent edge of every selected node to be an
     arrival edge. Both conditions are checked by one backward
     propagation: needs.(j) collects nodes whose every occurrence must
     match steps 1..j; a parent that cannot carry the prefix is flagged.

     The per-step (not per-path) propagation is a conservative
     approximation: a flagged parent may in rare shapes still carry the
     prefix through a different decomposition of p. It never misses a
     deviating occurrence (soundness is property-tested on adversarial
     DAGs). *)
  let side_delete = IdSet.create () in
  let needs = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  if selected <> [] then begin
    Hashtbl.iter
      (fun (u, _) j ->
        if j >= 1 then
          match outer.(j - 1) with
          | Plan.S_desc ->
              (* u is a walk intermediate: its occurrences must be walk
                 occurrences — the desc machinery of step j itself *)
              IdSet.add needs.(j) u
          | Plan.S_label _ | Plan.S_wild | Plan.S_filter _ ->
              IdSet.add needs.(j - 1) u)
      arrival;
    for j = nsteps downto 1 do
      let need = needs.(j) in
      if IdSet.cardinal need > 0 then
        match outer.(j - 1) with
        | Plan.S_filter _ -> IdSet.iter (IdSet.add needs.(j - 1)) need
        | Plan.S_label _ | Plan.S_wild ->
            IdSet.iter
              (fun x ->
                List.iter
                  (fun w ->
                    if IdSet.mem back.(j - 1) w then
                      IdSet.add needs.(j - 1) w
                    else IdSet.add side_delete w)
                  (src.s_parents x))
              need
        | Plan.S_desc ->
            (* walk upward through desc-or-self(B_{j-1}); the prefix may
               end at any walk node that is in B_{j-1} *)
            let bprev = back.(j - 1) in
            let bprev_bits = slots_of src bprev in
            let visited = IdSet.create () in
            let queue = Queue.create () in
            IdSet.iter
              (fun x ->
                IdSet.add visited x;
                Queue.add x queue)
              need;
            while not (Queue.is_empty queue) do
              let y = Queue.pop queue in
              let y_starts = IdSet.mem bprev y in
              if y_starts then IdSet.add needs.(j - 1) y;
              List.iter
                (fun w ->
                  if in_desc_or_self src bprev bprev_bits w then begin
                    if not (IdSet.mem visited w) then begin
                      IdSet.add visited w;
                      Queue.add w queue
                    end
                  end
                  else if not y_starts then IdSet.add side_delete w)
                (src.s_parents y)
            done
    done
  end;
  (* insertions additionally require every parent edge of every selected
     node to be an arrival edge *)
  let side_insert = IdSet.create () in
  IdSet.iter (IdSet.add side_insert) side_delete;
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          if not (Hashtbl.mem arrival (w, v)) then IdSet.add side_insert w)
        (src.s_parents v))
    selected;
  {
    selected;
    selected_types =
      List.map (fun id -> ((src.s_node id).Store.etype, id)) selected;
    arrival_edges = Hashtbl.fold (fun e _ acc -> e :: acc) arrival [];
    side_effects = IdSet.to_list side_insert;
    side_effects_delete = IdSet.to_list side_delete;
    zero_move_match = !zero_move;
  }

let eval_plan_src (src : src) (p : Plan.t) : result =
  let tb = create_tables p in
  bottom_up_src src p tb;
  top_down_src src p tb

(** [eval store l m p] evaluates the XPath [p] from the root of the view.
    See {!result}. *)
let eval (store : Store.t) (l : Topo.t) (m : Reach.t) (p : Ast.path) : result
    =
  eval_plan_src (live_src store l m) (Plan.compile p)
