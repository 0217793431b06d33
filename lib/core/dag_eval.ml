(** Two-pass evaluation of XPath on a DAG-compressed view (Section 3.2),
    with the bottom-up pass computed only where it is read.

    The paper's bottom-up pass fills, for every node v of L and every
    suffix of every path filter, whether the suffix can be satisfied
    starting at v — val(q, v) and, through the // recurrence,
    desc(q, v). Here no pass runs over L for that: a cell (filter,
    suffix, node) is computed the first time the top-down pass, a filter
    or the [//] route asks for it, by the same recurrence over the
    node's children, and memoized. Each row keeps its cells in two
    bitsets over node slots, [known] and [value], and a known cell is
    always exact.

    Anchors. A value filter [l = "s"] whose label's nodes are childless
    text nodes holds at exactly the parents of the l nodes whose text is
    s. The {!src} names those nodes when it has a lookup for l
    ([s_text_nodes]); in an ATG view there is at most one. A label step
    followed by a filter with such a conjunct takes its candidates from
    those parents instead of the frontier's children, and so does the
    [//] route below.

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
    meets C_i. The candidates are the anchored parents when the filter
    after the label step has an anchored conjunct, else every a node,
    found by one pass over the node table. B_{i+1} is then refined
    backwards through parents. The walk stays for a [//] followed by
    [*], by a filter, or by nothing.

    A plan computes at most the cells the full bottom-up DP would, so
    the worst case stays O(|p|·|V|); a plan whose value filters are
    anchored pays for the nodes its path touches.

    Value filters (p = "s") compare the XPath string value. Comparing
    every node's full text would be quadratic, so equality is decided by a
    text-length DP with on-demand bounded materialization.

    Paths execute as compiled {!Plan.t} opcodes. The memoized cells live
    in a {!tables} value for one evaluation.

    The passes read the view through a {!src} record — a first-class
    reader over (store, M); L is not read. {!live_src} binds it to the
    mutable structures; {!view_src} binds it to the frozen views of
    {!Store.freeze}/{!Reach.freeze}, which is how MVCC snapshot reads
    evaluate against a committed state while the live engine keeps
    mutating. *)

module Store = Rxv_dag.Store
module Reach = Rxv_dag.Reach
module Bitset = Rxv_dag.Bitset
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

type text_nodes = string -> string -> int list option

type src = {
  s_node : int -> Store.node;
  s_children : int -> int list;
  s_parents : int -> int list;
  s_root : unit -> int;
  s_iter_nodes : (Store.node -> unit) -> unit;  (** every node, any order *)
  s_slot_of : int -> int;
  s_anc_intersects : int -> Bitset.t -> bool;  (** by node id *)
  s_union_row_into : int -> dst:Bitset.t -> unit;  (** by node id *)
  s_text_nodes : text_nodes;
      (** for a label whose nodes are childless text nodes, the ones whose
          text is the given string; [None] for other labels *)
}

let live_src ~text_nodes (store : Store.t) (m : Reach.t) : src =
  {
    s_node = (fun id -> Store.node store id);
    s_children = (fun id -> Store.children store id);
    s_parents = (fun id -> Store.parents store id);
    s_root = (fun () -> Store.root store);
    s_iter_nodes = (fun f -> Store.iter_nodes f store);
    s_slot_of = (fun id -> Reach.slot_of m id);
    s_anc_intersects = (fun id bits -> Reach.anc_intersects m id bits);
    s_union_row_into = (fun id ~dst -> Reach.union_row_into m id ~dst);
    s_text_nodes = text_nodes;
  }

let view_src ~text_nodes (sv : Store.view) (rv : Reach.view) : src =
  let slot_of id = (Store.view_node sv id).Store.slot in
  {
    s_node = (fun id -> Store.view_node sv id);
    s_children = (fun id -> Store.view_children sv id);
    s_parents = (fun id -> Store.view_parents sv id);
    s_root = (fun () -> Store.view_root sv);
    s_iter_nodes = (fun f -> Store.view_fold_nodes (fun n () -> f n) sv ());
    s_slot_of = slot_of;
    s_anc_intersects =
      (fun id bits -> Reach.view_anc_intersects rv (slot_of id) bits);
    s_union_row_into =
      (fun id ~dst -> Reach.view_union_row_into rv (slot_of id) ~dst);
    s_text_nodes = text_nodes;
  }

module Itbl = Store.Itbl

module IdSet = struct
  type t = unit Itbl.t

  (* an evaluation makes two dozen sets or more, most of them holding a
     handful of ids, so a set starts small *)
  let create () : t = Itbl.create 8
  let add (s : t) id = Itbl.replace s id ()
  let mem (s : t) id = Itbl.mem s id
  let iter f (s : t) = Itbl.iter (fun id () -> f id) s
  let cardinal (s : t) = Itbl.length s
  let to_list (s : t) = Itbl.fold (fun id () acc -> id :: acc) s []
  let of_list ids =
    let s = create () in
    List.iter (add s) ids;
    s
end

(* ---- tables ----

   known.(k).(i) and value.(k).(i): per path filter k and suffix start i,
   bitsets over node slots. A set [known] bit means the [value] bit says
   whether steps i..n of filter k can be satisfied at the slot's node.
   The last cell of an existence filter always holds and is not stored.
   lens memoizes the text-length DP of nodes with children, by slot,
   saturated at len_cap + 1 (len_cap: the plan's longest comparison
   string). *)
type tables = {
  known : Bitset.t array array;
  value : Bitset.t array array;
  lens : int Itbl.t;
  len_cap : int;
  mutable cells : int;  (** cells computed so far *)
}

let create_tables (p : Plan.t) =
  let rows () =
    Array.map
      (fun pf ->
        Array.init (Array.length pf.Plan.steps + 1) (fun _ -> Bitset.create ()))
      p.Plan.pfilters
  in
  {
    known = rows ();
    value = rows ();
    lens = Itbl.create 16;
    len_cap =
      Array.fold_left
        (fun acc pf ->
          match pf.Plan.target with
          | Plan.T_text_eq s -> max acc (String.length s)
          | Plan.T_exists -> acc)
        0 p.Plan.pfilters;
    cells = 0;
  }

let cells_computed tb = tb.cells

(* ---- text equality via length DP ----

   Lengths saturate at [len_cap] + 1: a comparison needs the exact
   length only up to there, so a node's sum over its children stops as
   soon as it passes [len_cap], and a node with many children (the root)
   costs O(len_cap) lookups rather than one per child. A childless
   node's string value is its own text, compared directly. *)

let own_text (n : Store.node) =
  match n.Store.text with Some s -> s | None -> ""

let rec text_len src tb id =
  let n = src.s_node id in
  match src.s_children id with
  | [] -> min (String.length (own_text n)) (tb.len_cap + 1)
  | kids -> (
      match Itbl.find_opt tb.lens n.Store.slot with
      | Some l -> l
      | None ->
          let l = sum_text_lens src tb (String.length (own_text n)) kids in
          Itbl.replace tb.lens n.Store.slot l;
          l)

and sum_text_lens src tb acc = function
  | c :: rest when acc <= tb.len_cap ->
      sum_text_lens src tb (acc + text_len src tb c) rest
  | _ -> min acc (tb.len_cap + 1)

let text_eq src tb (n : Store.node) s =
  match src.s_children n.Store.id with
  | [] -> String.equal (own_text n) s
  | _ ->
      text_len src tb n.Store.id = String.length s
      &&
      let buf = Buffer.create (String.length s) in
      let rec go id =
        Buffer.add_string buf (own_text (src.s_node id));
        List.iter go (src.s_children id)
      in
      go n.Store.id;
      String.equal (Buffer.contents buf) s

(* ---- cells, computed where they are read ----

   [cell p tb src k i n]: can steps i..n of filter k be satisfied at
   node [n]? The recurrence of the paper's bottom-up pass, over [n]'s
   children, memoized in [known]/[value]. A cell reads only cells of
   [n] and its descendants, so it is exact for as long as no node below
   [n] changes. *)

let rec cell (p : Plan.t) tb src k i (n : Store.node) =
  let pf = p.Plan.pfilters.(k) in
  let last = i = Array.length pf.Plan.steps in
  match pf.Plan.target with
  | Plan.T_exists when last -> true
  | target ->
      let slot = n.Store.slot in
      if Bitset.get tb.known.(k).(i) slot then Bitset.get tb.value.(k).(i) slot
      else begin
        let holds =
          match target with
          | Plan.T_text_eq s when last -> text_eq src tb n s
          | Plan.T_exists | Plan.T_text_eq _ -> step_holds p tb src k i n
        in
        Bitset.set tb.known.(k).(i) slot;
        if holds then Bitset.set tb.value.(k).(i) slot
        else Bitset.clear tb.value.(k).(i) slot;
        tb.cells <- tb.cells + 1;
        holds
      end

(* the recurrence for step i of filter k at [n] *)
and step_holds p tb src k i n =
  match p.Plan.pfilters.(k).Plan.steps.(i) with
  | Plan.S_filter q -> filter_holds p tb src q n && cell p tb src k (i + 1) n
  | Plan.S_label a ->
      some_kid_named p tb src k (i + 1) p.Plan.labels.(a)
        (src.s_children n.Store.id)
  | Plan.S_wild -> some_kid p tb src k (i + 1) (src.s_children n.Store.id)
  | Plan.S_desc ->
      cell p tb src k (i + 1) n
      || some_kid p tb src k i (src.s_children n.Store.id)

(* does some child (labeled [name], for [some_kid_named]) satisfy steps
   i..n of filter k? *)
and some_kid p tb src k i = function
  | [] -> false
  | u :: rest -> cell p tb src k i (src.s_node u) || some_kid p tb src k i rest

and some_kid_named p tb src k i name = function
  | [] -> false
  | u :: rest ->
      let nu = src.s_node u in
      (String.equal nu.Store.etype name && cell p tb src k i nu)
      || some_kid_named p tb src k i name rest

and filter_holds (p : Plan.t) tb src (q : Plan.filter) (n : Store.node) =
  match q with
  | Plan.F_label a -> String.equal n.Store.etype p.Plan.labels.(a)
  | Plan.F_and (x, y) -> filter_holds p tb src x n && filter_holds p tb src y n
  | Plan.F_or (x, y) -> filter_holds p tb src x n || filter_holds p tb src y n
  | Plan.F_not x -> not (filter_holds p tb src x n)
  | Plan.F_path k -> cell p tb src k 0 n

(* ---- anchors ---- *)

(* the text nodes of an anchored conjunct of [q]: a filter [l = "s"]
   among q's conjuncts whose label [src] has a text lookup for *)
let rec anchor (p : Plan.t) src = function
  | Plan.F_path k -> (
      match p.Plan.pfilters.(k) with
      | { Plan.steps = [| Plan.S_label l |]; target = Plan.T_text_eq s } ->
          src.s_text_nodes p.Plan.labels.(l) s
      | _ -> None)
  | Plan.F_and (x, y) -> (
      match anchor p src x with Some _ as r -> r | None -> anchor p src y)
  | Plan.F_label _ | Plan.F_or _ | Plan.F_not _ -> None

(* when step j is a filter with an anchored conjunct: the parents of its
   text nodes, a superset of the nodes the filter keeps *)
let anchored_parents (p : Plan.t) src j =
  if j >= Array.length p.Plan.outer then None
  else
    match p.Plan.outer.(j) with
    | Plan.S_filter q ->
        Option.map
          (fun texts ->
            let s = IdSet.create () in
            List.iter
              (fun t -> List.iter (IdSet.add s) (src.s_parents t))
              texts;
            s)
          (anchor p src q)
    | Plan.S_label _ | Plan.S_wild | Plan.S_desc -> None

(* the label a when step i is a [//] followed by a label step a: the
   step is answered through M *)
let route (p : Plan.t) i =
  match p.Plan.outer.(i) with
  | Plan.S_desc when i + 1 < Array.length p.Plan.outer -> (
      match p.Plan.outer.(i + 1) with
      | Plan.S_label a -> Some a
      | Plan.S_filter _ | Plan.S_wild | Plan.S_desc -> None)
  | Plan.S_desc | Plan.S_filter _ | Plan.S_label _ | Plan.S_wild -> None

(* ---- top-down pass ---- *)

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

(* is some parent of [u] in [s]? *)
let has_parent_in src (s : IdSet.t) u =
  List.exists (IdSet.mem s) (src.s_parents u)

let top_down_src (src : src) (p : Plan.t) (tb : tables) : result =
  let root = src.s_root () in
  let nsteps = Array.length p.Plan.outer in
  let outer = p.Plan.outer in
  (* forward frontiers; frontier.(i) = C_i. A routed [//] at i leaves
     C_{i+1} empty and fills C_{i+2} directly: the candidates whose
     ancestor row in M meets C_i. A label step followed by an anchored
     filter fills C_{i+1} with only the anchored parents it reaches; the
     filter step keeps what the full C_{i+1} would *)
  let frontier = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  IdSet.add frontier.(0) root;
  let i = ref 0 in
  while !i < nsteps do
    let prev = frontier.(!i) and next = frontier.(!i + 1) in
    (match (route p !i, outer.(!i)) with
    | Some a, _ ->
        let name = p.Plan.labels.(a) in
        let prev_bits = slots_of src prev in
        let after = frontier.(!i + 2) in
        let add (n : Store.node) =
          if
            String.equal n.Store.etype name
            && src.s_anc_intersects n.Store.id prev_bits
          then IdSet.add after n.Store.id
        in
        (* the anchored parents, else every a node by one pass over the
           node table *)
        (match anchored_parents p src (!i + 2) with
        | Some cands -> IdSet.iter (fun c -> add (src.s_node c)) cands
        | None -> src.s_iter_nodes add);
        incr i
    | None, Plan.S_filter q ->
        IdSet.iter
          (fun v ->
            if filter_holds p tb src q (src.s_node v) then IdSet.add next v)
          prev
    | None, Plan.S_label a -> (
        let name = p.Plan.labels.(a) in
        match anchored_parents p src (!i + 1) with
        | Some cands ->
            IdSet.iter
              (fun u ->
                if
                  String.equal (src.s_node u).Store.etype name
                  && has_parent_in src prev u
                then IdSet.add next u)
              cands
        | None ->
            IdSet.iter
              (fun v ->
                List.iter
                  (fun u ->
                    if String.equal (src.s_node u).Store.etype name then
                      IdSet.add next u)
                  (src.s_children v))
              prev)
    | None, Plan.S_wild ->
        IdSet.iter
          (fun v -> List.iter (IdSet.add next) (src.s_children v))
          prev
    | None, Plan.S_desc ->
        let rec go u =
          if not (IdSet.mem next u) then begin
            IdSet.add next u;
            List.iter go (src.s_children u)
          end
        in
        IdSet.iter go prev);
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
    | Plan.S_label _ when i >= 1 && Option.is_some (route p (i - 1)) ->
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
        (* B_i = C_i ∩ parents(B_{i+1}), from whichever side is smaller:
           a selective step leaves few nodes in B_{i+1}, while a node of
           C_i such as the root can have a child per key *)
        let ci = frontier.(i) in
        if IdSet.cardinal bi1 <= IdSet.cardinal ci then
          IdSet.iter
            (fun v ->
              List.iter
                (fun w -> if IdSet.mem ci w then IdSet.add bi w)
                (src.s_parents v))
            bi1
        else
          IdSet.iter
            (fun w ->
              if List.exists (IdSet.mem bi1) (src.s_children w) then
                IdSet.add bi w)
            ci
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
  top_down_src src p (create_tables p)
