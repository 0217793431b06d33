(** The relational coding of a compressed XML view (Section 2.3).

    A view σ(I) is stored as a DAG: each node is identified by the Skolem
    function gen_id applied to its element type and semantic-attribute
    value, so a subtree shared by many occurrences is stored once. The
    store keeps

    - [gen_A]: per element type, the registry of node identities; the
      gen_id memo table, keyed on (type, $A), is its index on $A, which
      the insertion translator probes through {!find_id} instead of
      copying the registry;
    - the edge relations [edge_A_B], here as ordered adjacency lists plus
      parent lists and an edge table carrying, for star edges, the
      key-preserved SPJ output row that produced the edge (its provenance —
      what Algorithm delete's deletable sources are computed from);
    - a dense *slot* per node used to index bitsets (the reachability
      matrix rows).

    Slots of removed nodes are recycled; the maintenance algorithms
    guarantee no stale bits survive a removal (property-tested). *)

module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple
module Journal = Rxv_relational.Journal

type node = {
  id : int;
  etype : string;
  attr : Tuple.t;  (** the value of the semantic attribute $A *)
  text : string option;  (** pcdata content, for pcdata-typed elements *)
  slot : int;
}

type edge_info = {
  mutable provenance : Tuple.t list;
      (** the key-preserved SPJ view rows that produce this edge (star
          edges). Distinct base derivations of the same (id_A, id_B) pair
          appear as distinct rows — Algorithm delete must remove a source
          of each. Empty for structural (seq/alt/pcdata) edges. *)
}

module Imap = Map.Make (Int)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

(* (etype, $A) identities, for the frozen lookup of text-carrying nodes *)
module Kmap = Map.Make (struct
  type t = string * Tuple.t

  let compare (a, x) (b, y) =
    match String.compare a b with 0 -> Tuple.compare x y | c -> c
end)

type t = {
  mutable next_id : int;
  mutable next_slot : int;
  mutable free_slots : int list;
  ids : (string * Value.t list, int) Hashtbl.t;  (** gen_id memo table *)
  nodes : node Itbl.t;
  slot_ids : int Itbl.t;  (** slot -> node id *)
  gen : (string, (int, unit) Hashtbl.t) Hashtbl.t;  (** gen_A registries *)
  children : int list ref Itbl.t;  (** ordered adjacency *)
  parents : unit Itbl.t Itbl.t;
  edges : (int * int, edge_info) Hashtbl.t;
  mutable root : int;
  journal : Journal.t;
      (** undo journal for transactional mutation; every mutation entry
          point records its exact inverse while a frame is open *)
  mutable c_nodes : node Imap.t;
      (** persistent image of [nodes] as of the last {!freeze} *)
  mutable c_children : int list Imap.t;
  mutable c_parents : int list Imap.t;
  mutable c_texts : int Kmap.t;
      (** (etype, $A) -> id of the text-carrying nodes, as of the last
          freeze *)
  dirty : unit Itbl.t;
      (** node ids whose record/adjacency possibly changed since the last
          {!freeze}; a superset is harmless *)
}

exception Dag_error of string

let dag_error fmt = Fmt.kstr (fun s -> raise (Dag_error s)) fmt

let create () =
  {
    next_id = 0;
    next_slot = 0;
    free_slots = [];
    ids = Hashtbl.create 1024;
    nodes = Itbl.create 1024;
    slot_ids = Itbl.create 1024;
    gen = Hashtbl.create 16;
    children = Itbl.create 1024;
    parents = Itbl.create 1024;
    edges = Hashtbl.create 4096;
    root = -1;
    journal = Journal.create ();
    c_nodes = Imap.empty;
    c_children = Imap.empty;
    c_parents = Imap.empty;
    c_texts = Kmap.empty;
    dirty = Itbl.create 1024;
  }

let mark_dirty t id = Itbl.replace t.dirty id ()

let journal t = t.journal
let begin_ t = Journal.begin_ t.journal
let commit t = Journal.commit t.journal
let abort t = Journal.abort t.journal

let recording t = Journal.recording t.journal

(* the hot readers use [Itbl.find], which allocates no option *)
let node t id =
  match Itbl.find t.nodes id with
  | n -> n
  | exception Not_found -> dag_error "unknown node id %d" id

let mem_node t id = Itbl.mem t.nodes id

(** [find_id t etype attr] is the existing id for (etype, attr), if any. *)
let find_id t etype (attr : Tuple.t) =
  Hashtbl.find_opt t.ids (etype, Tuple.to_list attr)

(** [gen_id t etype attr ?text ()] is the Skolem function: returns the
    unique id for (etype, $A = attr), creating and registering the node on
    first use. *)
let gen_id t etype (attr : Tuple.t) ?text () =
  let key = (etype, Tuple.to_list attr) in
  match Hashtbl.find_opt t.ids key with
  | Some id -> id
  | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let from_free = t.free_slots <> [] in
      let slot =
        match t.free_slots with
        | s :: rest ->
            t.free_slots <- rest;
            s
        | [] ->
            let s = t.next_slot in
            t.next_slot <- s + 1;
            s
      in
      let n = { id; etype; attr; text; slot } in
      mark_dirty t id;
      Hashtbl.replace t.ids key id;
      Itbl.replace t.nodes id n;
      Itbl.replace t.slot_ids slot id;
      let reg =
        match Hashtbl.find_opt t.gen etype with
        | Some r -> r
        | None ->
            let r = Hashtbl.create 64 in
            Hashtbl.replace t.gen etype r;
            r
      in
      Hashtbl.replace reg id ();
      (* inverse: unregister the node and hand back its id and slot. Ids
         are monotonic and undos replay newest-first, so [next_id <- id]
         restores the pre-transaction counter exactly; likewise the slot
         goes back where it came from (free-list head or next_slot). *)
      if recording t then
        Journal.record t.journal (fun () ->
            Itbl.remove t.nodes id;
            Hashtbl.remove t.ids key;
            Itbl.remove t.slot_ids slot;
            Hashtbl.remove reg id;
            Itbl.remove t.children id;
            Itbl.remove t.parents id;
            t.next_id <- id;
            if from_free then t.free_slots <- slot :: t.free_slots
            else t.next_slot <- slot);
      id

let set_root t id =
  if recording t then begin
    let old = t.root in
    Journal.record t.journal (fun () -> t.root <- old)
  end;
  t.root <- id
let root t = if t.root < 0 then dag_error "store has no root" else t.root

let children t id =
  match Itbl.find t.children id with l -> !l | exception Not_found -> []

let parents t id =
  match Itbl.find t.parents id with
  | tbl -> Itbl.fold (fun p () acc -> p :: acc) tbl []
  | exception Not_found -> []

let in_degree t id =
  match Itbl.find_opt t.parents id with
  | Some tbl -> Itbl.length tbl
  | None -> 0

let mem_edge t u v = Hashtbl.mem t.edges (u, v)

let edge_info t u v =
  match Hashtbl.find_opt t.edges (u, v) with
  | Some e -> e
  | None -> dag_error "no edge (%d, %d)" u v

(** [add_edge t u v ~provenance] appends [v] to [u]'s children (rightmost
    position, matching the paper's insertion semantics). Adding an existing
    edge only accumulates any new provenance row (set semantics of the
    relational views). *)
let rec add_edge t u v ~provenance =
  match Hashtbl.find_opt t.edges (u, v) with
  | Some info ->
      (match provenance with
      | Some row when not (List.exists (Tuple.equal row) info.provenance) ->
          info.provenance <- info.provenance @ [ row ];
          (* the row was not present before, so filtering it out is exact *)
          if recording t then
            Journal.record t.journal (fun () ->
                info.provenance <-
                  List.filter (fun r -> not (Tuple.equal r row)) info.provenance)
      | Some _ | None -> ())
  | None -> (
      ignore (node t u);
      ignore (node t v);
      mark_dirty t u;
      mark_dirty t v;
      Hashtbl.replace t.edges (u, v)
        { provenance = Option.to_list provenance };
      (* the child is appended at the rightmost position, so the plain
         [remove_edge] (which filters it out) is the exact inverse *)
      if recording t then
        Journal.record t.journal (fun () -> ignore (remove_edge t u v));
      (match Itbl.find_opt t.children u with
      | Some l -> l := !l @ [ v ]
      | None -> Itbl.replace t.children u (ref [ v ]));
      match Itbl.find_opt t.parents v with
      | Some tbl -> Itbl.replace tbl u ()
      | None ->
          let tbl = Itbl.create 4 in
          Itbl.replace tbl u ();
          Itbl.replace t.parents v tbl)

(** [remove_edge t u v] removes the edge if present; returns whether it
    was. Nodes are never removed here — that is the garbage collector's
    job (Section 2.3). *)
and remove_edge t u v =
  match Hashtbl.find_opt t.edges (u, v) with
  | None -> false
  | Some info ->
      Hashtbl.remove t.edges (u, v);
      mark_dirty t u;
      mark_dirty t v;
      (* inverse: reinstate the edge_info object and splice [v] back at
         its old position among [u]'s children (plain [add_edge] would
         append, losing document order) *)
      if recording t then begin
        let idx =
          match Itbl.find_opt t.children u with
          | Some l ->
              let rec find i = function
                | [] -> 0
                | c :: _ when c = v -> i
                | _ :: rest -> find (i + 1) rest
              in
              find 0 !l
          | None -> 0
        in
        Journal.record t.journal (fun () ->
            Hashtbl.replace t.edges (u, v) info;
            (match Itbl.find_opt t.children u with
            | Some l ->
                let rec splice i = function
                  | rest when i = 0 -> v :: rest
                  | [] -> [ v ]
                  | c :: rest -> c :: splice (i - 1) rest
                in
                l := splice idx !l
            | None -> Itbl.replace t.children u (ref [ v ]));
            match Itbl.find_opt t.parents v with
            | Some tbl -> Itbl.replace tbl u ()
            | None ->
                let tbl = Itbl.create 4 in
                Itbl.replace tbl u ();
                Itbl.replace t.parents v tbl)
      end;
      (match Itbl.find_opt t.children u with
      | Some l -> l := List.filter (fun c -> c <> v) !l
      | None -> ());
      (match Itbl.find_opt t.parents v with
      | Some tbl ->
          Itbl.remove tbl u;
          if Itbl.length tbl = 0 then Itbl.remove t.parents v
      | None -> ());
      true

(** [remove_node t id] unregisters a node with no remaining edges and
    recycles its slot. *)
let remove_node t id =
  let n = node t id in
  if children t id <> [] || parents t id <> [] then
    dag_error "remove_node %d: node still has edges" id;
  let key = (n.etype, Tuple.to_list n.attr) in
  mark_dirty t id;
  Itbl.remove t.nodes id;
  Hashtbl.remove t.ids key;
  Itbl.remove t.children id;
  Itbl.remove t.parents id;
  (match Hashtbl.find_opt t.gen n.etype with
  | Some reg -> Hashtbl.remove reg id
  | None -> ());
  Itbl.remove t.slot_ids n.slot;
  t.free_slots <- n.slot :: t.free_slots;
  (* inverse: re-register the node record and reclaim its slot from the
     free list (at replay time the slot sits at the head again, by LIFO) *)
  if recording t then
    Journal.record t.journal (fun () ->
        Itbl.replace t.nodes id n;
        Hashtbl.replace t.ids key id;
        Itbl.replace t.slot_ids n.slot id;
        let reg =
          match Hashtbl.find_opt t.gen n.etype with
          | Some r -> r
          | None ->
              let r = Hashtbl.create 64 in
              Hashtbl.replace t.gen n.etype r;
              r
        in
        Hashtbl.replace reg id ();
        match t.free_slots with
        | s :: rest when s = n.slot -> t.free_slots <- rest
        | _ -> t.free_slots <- List.filter (fun s -> s <> n.slot) t.free_slots)

(** [set_provenance t u v rows] replaces the edge's derivation rows — the
    journaled entry point for provenance refresh (base-update
    reconciliation); direct mutation of {!edge_info} would bypass the
    undo journal. *)
let set_provenance t u v rows =
  let info = edge_info t u v in
  if recording t then begin
    let old = info.provenance in
    Journal.record t.journal (fun () -> info.provenance <- old)
  end;
  info.provenance <- rows

(** Node id currently occupying [slot], if any. *)
let id_of_slot t slot = Itbl.find_opt t.slot_ids slot

(** The id the next created node will receive; ids are allocated
    monotonically, so [id >= next_id t] later identifies fresh nodes. *)
let next_id t = t.next_id

let n_nodes t = Itbl.length t.nodes
let n_edges t = Hashtbl.length t.edges
let slot_capacity t = t.next_slot

let iter_nodes f t = Itbl.iter (fun _ n -> f n) t.nodes
let fold_nodes f t acc = Itbl.fold (fun _ n acc -> f n acc) t.nodes acc

let iter_edges f t = Hashtbl.iter (fun (u, v) info -> f u v info) t.edges

(** Ids registered in gen_A for a given element type. *)
let gen_ids t etype =
  match Hashtbl.find_opt t.gen etype with
  | Some reg -> Hashtbl.fold (fun id () acc -> id :: acc) reg []
  | None -> []

let gen_cardinal t etype =
  match Hashtbl.find_opt t.gen etype with
  | Some reg -> Hashtbl.length reg
  | None -> 0

(** {2 Tree materialization}

    Uncompresses the DAG below [id] into a tree — the view semantics that
    correctness statements quantify over. Subtree sizes can be exponential
    in the DAG size; [max_nodes] guards oracles against blowup. *)
let tree_of ?(max_nodes = max_int) t id =
  let budget = ref max_nodes in
  let rec go id =
    decr budget;
    if !budget < 0 then dag_error "tree_of: node budget exhausted";
    let n = node t id in
    Rxv_xml.Tree.element ?text:n.text ~uid:id n.etype
      (List.map go (children t id))
  in
  go id

let to_tree ?max_nodes t = tree_of ?max_nodes t (root t)

(** Nodes reachable from the root (ids). *)
let reachable_from_root t =
  let seen = Hashtbl.create (n_nodes t) in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (children t id)
    end
  in
  if t.root >= 0 then go t.root;
  seen

(* occurrences(v) = Σ occurrences(parent), root = 1: a top-down
   accumulation in parents-before-children order. Generic over the
   children accessor so live stores and frozen views share the code. *)
let occ_counts ~root ~children ~size =
  let counts = Hashtbl.create size in
  let bump id k =
    let prev = Option.value ~default:0 (Hashtbl.find_opt counts id) in
    let v = prev + k in
    Hashtbl.replace counts id (if v < 0 then max_int / 2 else v)
  in
  (* process in a topological order: parents before children *)
  let order = ref [] in
  let seen = Hashtbl.create size in
  let rec dfs id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter dfs (children id);
      order := id :: !order
    end
  in
  if root >= 0 then dfs root;
  (* !order is now parents-before-children *)
  if root >= 0 then bump root 1;
  List.iter
    (fun id ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts id) in
      if c > 0 then List.iter (fun ch -> bump ch c) (children id))
    !order;
  counts

(** Number of occurrences of each node in the uncompressed tree — used by
    the sharing statistics of Fig. 10(b). Counts are capped at
    [max_int/2] to avoid overflow on pathological DAGs. *)
let occurrence_counts t =
  occ_counts ~root:t.root ~children:(children t) ~size:(n_nodes t)

(** {2 Frozen views (MVCC snapshot reads)}

    A view is an immutable image of the node table, the (etype, $A) → id
    map of text-carrying nodes, adjacency, and root over persistent
    maps. Freezing patches the previous image with the entries of every
    node id touched since the last freeze, so the cost is
    O(touched · log n) and untouched structure (including the node
    records and children lists themselves) is shared with the live store
    and all earlier views. *)

type view = {
  v_nodes : node Imap.t;
  v_children : int list Imap.t;
  v_parents : int list Imap.t;
  v_texts : int Kmap.t;
  v_root : int;
  v_n_edges : int;
}

let freeze t =
  (* unmap the identity [id] held at the last freeze, unless a node
     created since has already claimed it (dirty ids are visited in any
     order) *)
  let release id =
    match Imap.find_opt id t.c_nodes with
    | Some old ->
        let key = (old.etype, old.attr) in
        if old.text <> None && Kmap.find_opt key t.c_texts = Some id then
          t.c_texts <- Kmap.remove key t.c_texts
    | None -> ()
  in
  Itbl.iter
    (fun id () ->
      match Itbl.find_opt t.nodes id with
      | Some n ->
          release id;
          if n.text <> None then
            t.c_texts <- Kmap.add (n.etype, n.attr) id t.c_texts;
          t.c_nodes <- Imap.add id n t.c_nodes;
          (match Itbl.find_opt t.children id with
          | Some l when !l <> [] -> t.c_children <- Imap.add id !l t.c_children
          | Some _ | None -> t.c_children <- Imap.remove id t.c_children);
          (match Itbl.find_opt t.parents id with
          | Some tbl when Itbl.length tbl > 0 ->
              t.c_parents <-
                Imap.add id
                  (Itbl.fold (fun p () acc -> p :: acc) tbl [])
                  t.c_parents
          | Some _ | None -> t.c_parents <- Imap.remove id t.c_parents)
      | None ->
          release id;
          t.c_nodes <- Imap.remove id t.c_nodes;
          t.c_children <- Imap.remove id t.c_children;
          t.c_parents <- Imap.remove id t.c_parents)
    t.dirty;
  Itbl.reset t.dirty;
  {
    v_nodes = t.c_nodes;
    v_children = t.c_children;
    v_parents = t.c_parents;
    v_texts = t.c_texts;
    v_root = t.root;
    v_n_edges = Hashtbl.length t.edges;
  }

let view_node v id =
  match Imap.find_opt id v.v_nodes with
  | Some n -> n
  | None -> dag_error "view: unknown node id %d" id

let view_find_text_node v etype attr = Kmap.find_opt (etype, attr) v.v_texts

let view_children v id =
  Option.value ~default:[] (Imap.find_opt id v.v_children)

let view_parents v id = Option.value ~default:[] (Imap.find_opt id v.v_parents)
let view_in_degree v id = List.length (view_parents v id)

let view_root v =
  if v.v_root < 0 then dag_error "store view has no root" else v.v_root

let view_n_nodes v = Imap.cardinal v.v_nodes
let view_n_edges v = v.v_n_edges
let view_fold_nodes f v acc = Imap.fold (fun _ n acc -> f n acc) v.v_nodes acc

let view_occurrence_counts v =
  occ_counts ~root:v.v_root ~children:(view_children v) ~size:(view_n_nodes v)

(** {2 Durability}

    The persisted form is the full store state as plain data, ordered
    deterministically (ascending ids) so identical stores serialize to
    identical bytes. *)

type persisted_node = {
  pn_id : int;
  pn_etype : string;
  pn_attr : Tuple.t;
  pn_text : string option;
  pn_slot : int;
}

type persisted = {
  p_next_id : int;
  p_next_slot : int;
  p_free_slots : int list;
  p_root : int;
  p_nodes : persisted_node list;
  p_children : (int * int list) list;
  p_provenance : ((int * int) * Tuple.t list) list;
}

let to_persisted t =
  let nodes =
    fold_nodes
      (fun n acc ->
        {
          pn_id = n.id;
          pn_etype = n.etype;
          pn_attr = n.attr;
          pn_text = n.text;
          pn_slot = n.slot;
        }
        :: acc)
      t []
    |> List.sort (fun a b -> compare a.pn_id b.pn_id)
  in
  let child_lists =
    Itbl.fold (fun u l acc -> (u, !l) :: acc) t.children []
    |> List.filter (fun (_, l) -> l <> [])
    |> List.sort compare
  in
  let prov =
    Hashtbl.fold
      (fun (u, v) info acc ->
        if info.provenance = [] then acc
        else ((u, v), info.provenance) :: acc)
      t.edges []
    |> List.sort (fun (e, _) (e', _) -> compare e e')
  in
  {
    p_next_id = t.next_id;
    p_next_slot = t.next_slot;
    p_free_slots = t.free_slots;
    p_root = t.root;
    p_nodes = nodes;
    p_children = child_lists;
    p_provenance = prov;
  }

(** [of_persisted p] rebuilds a store; validates the invariants a decoder
    cannot express (unique ids/slots, counters ahead of allocations,
    edges over known nodes) and raises {!Dag_error} otherwise — recovery
    treats that as a corrupt checkpoint. *)
let of_persisted (p : persisted) =
  (* like [create], but sized for the known node/edge counts — avoids
     log(n) full-table rehashes while loading a checkpoint *)
  let n_nodes = max 16 (List.length p.p_nodes) in
  let n_edges =
    max 16 (List.fold_left (fun a (_, cs) -> a + List.length cs) 0 p.p_children)
  in
  let t =
    {
      next_id = 0;
      next_slot = 0;
      free_slots = [];
      ids = Hashtbl.create n_nodes;
      nodes = Itbl.create n_nodes;
      slot_ids = Itbl.create n_nodes;
      gen = Hashtbl.create 16;
      children = Itbl.create n_nodes;
      parents = Itbl.create n_nodes;
      edges = Hashtbl.create n_edges;
      root = -1;
      journal = Journal.create ();
      c_nodes = Imap.empty;
      c_children = Imap.empty;
      c_parents = Imap.empty;
      c_texts = Kmap.empty;
      dirty = Itbl.create n_nodes;
    }
  in
  (* the committed image starts empty; every loaded node is dirty so the
     first freeze rebuilds it *)
  List.iter (fun pn -> mark_dirty t pn.pn_id) p.p_nodes;
  t.next_id <- p.p_next_id;
  t.next_slot <- p.p_next_slot;
  t.free_slots <- p.p_free_slots;
  let free = Hashtbl.create (List.length p.p_free_slots) in
  List.iter (fun s -> Hashtbl.replace free s ()) p.p_free_slots;
  List.iter
    (fun pn ->
      if pn.pn_id < 0 || pn.pn_id >= p.p_next_id then
        dag_error "of_persisted: node id %d outside [0, %d)" pn.pn_id
          p.p_next_id;
      if pn.pn_slot < 0 || pn.pn_slot >= p.p_next_slot then
        dag_error "of_persisted: slot %d outside [0, %d)" pn.pn_slot
          p.p_next_slot;
      if Itbl.mem t.nodes pn.pn_id then
        dag_error "of_persisted: duplicate node id %d" pn.pn_id;
      if Itbl.mem t.slot_ids pn.pn_slot then
        dag_error "of_persisted: duplicate slot %d" pn.pn_slot;
      if Hashtbl.mem free pn.pn_slot then
        dag_error "of_persisted: slot %d both live and free" pn.pn_slot;
      let n =
        {
          id = pn.pn_id;
          etype = pn.pn_etype;
          attr = pn.pn_attr;
          text = pn.pn_text;
          slot = pn.pn_slot;
        }
      in
      let key = (n.etype, Tuple.to_list n.attr) in
      if Hashtbl.mem t.ids key then
        dag_error "of_persisted: duplicate identity for node %d" n.id;
      Hashtbl.replace t.ids key n.id;
      Itbl.replace t.nodes n.id n;
      Itbl.replace t.slot_ids n.slot n.id;
      let reg =
        match Hashtbl.find_opt t.gen n.etype with
        | Some r -> r
        | None ->
            let r = Hashtbl.create 64 in
            Hashtbl.replace t.gen n.etype r;
            r
      in
      Hashtbl.replace reg n.id ())
    p.p_nodes;
  let prov = Hashtbl.create (List.length p.p_provenance) in
  List.iter (fun (e, rows) -> Hashtbl.replace prov e rows) p.p_provenance;
  List.iter
    (fun (u, cs) ->
      if not (Itbl.mem t.nodes u) then
        dag_error "of_persisted: edge parent %d unknown" u;
      Itbl.replace t.children u (ref cs);
      List.iter
        (fun v ->
          if not (Itbl.mem t.nodes v) then
            dag_error "of_persisted: edge child %d unknown" v;
          if Hashtbl.mem t.edges (u, v) then
            dag_error "of_persisted: duplicate edge (%d, %d)" u v;
          Hashtbl.replace t.edges (u, v)
            {
              provenance =
                Option.value ~default:[] (Hashtbl.find_opt prov (u, v));
            };
          (match Itbl.find_opt t.parents v with
          | Some tbl -> Itbl.replace tbl u ()
          | None ->
              let tbl = Itbl.create 4 in
              Itbl.replace tbl u ();
              Itbl.replace t.parents v tbl))
        cs)
    p.p_children;
  List.iter
    (fun ((u, v), _) ->
      if not (Hashtbl.mem t.edges (u, v)) then
        dag_error "of_persisted: provenance for absent edge (%d, %d)" u v)
    p.p_provenance;
  if p.p_root >= 0 && not (Itbl.mem t.nodes p.p_root) then
    dag_error "of_persisted: root %d unknown" p.p_root;
  t.root <- p.p_root;
  t

(** Deep copy — snapshot support for transactional update groups. *)
let copy t =
  let dirty = Itbl.create (max 16 (Itbl.length t.nodes)) in
  Itbl.iter (fun id _ -> Itbl.replace dirty id ()) t.nodes;
  {
    next_id = t.next_id;
    next_slot = t.next_slot;
    free_slots = t.free_slots;
    ids = Hashtbl.copy t.ids;
    nodes = Itbl.copy t.nodes;
    slot_ids = Itbl.copy t.slot_ids;
    gen =
      (let g = Hashtbl.create (Hashtbl.length t.gen) in
       Hashtbl.iter (fun k v -> Hashtbl.replace g k (Hashtbl.copy v)) t.gen;
       g);
    children =
      (let c = Itbl.create (Itbl.length t.children) in
       Itbl.iter (fun k v -> Itbl.replace c k (ref !v)) t.children;
       c);
    parents =
      (let p = Itbl.create (Itbl.length t.parents) in
       Itbl.iter (fun k v -> Itbl.replace p k (Itbl.copy v)) t.parents;
       p);
    edges =
      (let e = Hashtbl.create (Hashtbl.length t.edges) in
       Hashtbl.iter
         (fun k info -> Hashtbl.replace e k { provenance = info.provenance })
         t.edges;
       e);
    root = t.root;
    journal = Journal.create ();
    c_nodes = Imap.empty;
    c_children = Imap.empty;
    c_parents = Imap.empty;
    c_texts = Kmap.empty;
    dirty;
  }
