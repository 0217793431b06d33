(** The topological order L of Section 3.1.

    L lists every distinct node of the DAG such that u precedes v only if
    u is *not* an ancestor of v — i.e. descendants come first and the root
    comes last. Algorithm Reach and the delete maintenance consume L
    backwards (root first); XPath evaluation does not read it.

    The structure supports the operations the maintenance algorithms of
    Section 3.4 need: ordinal comparison, the paper's [swap(L, u, v)] move
    (relocating L[u:v] ∩ desc(v) immediately in front of u), tombstoned
    removal, and splicing new nodes in front of an anchor.
    Tombstones keep removal O(1); the array compacts when more than half
    the slots are dead.

    The position map is a plain int array indexed by node id — the store
    allocates ids densely from 0, so this is exact, and it keeps the
    maintenance hot paths (every [ord]/[mem], and the position rewrites
    of [compact]/[insert_before]) at array-write cost instead of a
    hashtable operation per node. *)

module Journal = Rxv_relational.Journal

type t = {
  mutable arr : int array;  (** node ids, -1 for tombstones *)
  mutable len : int;  (** used prefix of [arr] *)
  mutable pos : int array;  (** id -> index in [arr]; -1 = not in L *)
  mutable live : int;  (** number of ids present *)
  journal : Journal.t;
      (** undo journal; each mutator records an exact inverse while a
          frame is open. Auto-compaction is deferred while a frame is
          open so recorded indices stay valid. *)
}

exception Topo_error of string

let topo_error fmt = Fmt.kstr (fun s -> raise (Topo_error s)) fmt

let journal l = l.journal
let begin_ l = Journal.begin_ l.journal
let commit l = Journal.commit l.journal
let abort l = Journal.abort l.journal
let recording l = Journal.recording l.journal

let ensure_pos l id =
  let n = Array.length l.pos in
  if id >= n then begin
    let pos = Array.make (max (id + 1) (max 16 (2 * n))) (-1) in
    Array.blit l.pos 0 pos 0 n;
    l.pos <- pos
  end

let set_pos l id i =
  ensure_pos l id;
  Array.unsafe_set l.pos id i

let of_ids (ids : int list) : t =
  let arr = Array.of_list ids in
  let l =
    {
      arr;
      len = Array.length arr;
      pos = [||];
      live = 0;
      journal = Journal.create ();
    }
  in
  Array.iteri
    (fun i id ->
      set_pos l id i;
      l.live <- l.live + 1)
    arr;
  l

(** Post-order DFS from the root: children before parents, hence
    descendants-first — a valid L. O(|V|). *)
let of_store (store : Store.t) : t =
  let seen = Hashtbl.create (Store.n_nodes store) in
  let order = ref [] in
  (* iterative DFS to survive deep DAGs *)
  let visit start =
    if not (Hashtbl.mem seen start) then begin
      let stack = ref [ (start, ref (Store.children store start)) ] in
      Hashtbl.replace seen start ();
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (id, rest) :: tl -> (
            match !rest with
            | [] ->
                order := id :: !order;
                stack := tl
            | c :: cs ->
                rest := cs;
                if not (Hashtbl.mem seen c) then begin
                  Hashtbl.replace seen c ();
                  stack := (c, ref (Store.children store c)) :: !stack
                end)
      done
    end
  in
  visit (Store.root store);
  (* include any detached nodes so |L| = n, placing them first (they have
     no ancestors among reachable nodes) *)
  let detached =
    Store.fold_nodes
      (fun n acc ->
        if Hashtbl.mem seen n.Store.id then acc else n.Store.id :: acc)
      store []
  in
  (* !order currently lists root first; reverse for descendants-first *)
  of_ids (detached @ List.rev !order)

let mem l id = id >= 0 && id < Array.length l.pos && l.pos.(id) >= 0

(** Ordinal of [id]; total order consistent with L. *)
let ord l id =
  if mem l id then Array.unsafe_get l.pos id
  else topo_error "node %d not in topological order" id

let is_before l a b = ord l a < ord l b

let live_count l = l.live

let to_list l =
  let out = ref [] in
  for i = l.len - 1 downto 0 do
    if l.arr.(i) >= 0 then out := l.arr.(i) :: !out
  done;
  !out

(** Forward iteration: leaves first. *)
let iter f l =
  for i = 0 to l.len - 1 do
    if l.arr.(i) >= 0 then f l.arr.(i)
  done

(** Backward iteration: root side first (the order Algorithm Reach and the
    delete maintenance use). *)
let iter_backward f l =
  for i = l.len - 1 downto 0 do
    if l.arr.(i) >= 0 then f l.arr.(i)
  done

let compact l =
  let arr = Array.make (max 8 l.live) (-1) in
  let j = ref 0 in
  for i = 0 to l.len - 1 do
    if l.arr.(i) >= 0 then begin
      arr.(!j) <- l.arr.(i);
      l.pos.(l.arr.(i)) <- !j;
      incr j
    end
  done;
  l.arr <- arr;
  l.len <- !j

let remove l id =
  if mem l id then begin
    let i = l.pos.(id) in
    l.arr.(i) <- -1;
    l.pos.(id) <- -1;
    l.live <- l.live - 1;
    (* the inverse reads [l.arr]/[l.pos] at replay time: any later array
       swap is itself journaled and undone first (LIFO), so the fields
       hold the same objects they did here *)
    if recording l then
      Journal.record l.journal (fun () ->
          l.arr.(i) <- id;
          l.pos.(id) <- i;
          l.live <- l.live + 1);
    (* compaction is deferred while a frame is open: it would relocate
       every live id, invalidating the indices recorded above *)
    if l.len > 16 && l.live * 2 < l.len && not (Journal.active l.journal) then
      compact l
  end

(** [swap l u v ~is_desc_of_v] implements the paper's [swap(L, u, v)]:
    given an inserted edge (u, v) with ord u < ord v, move the nodes of
    L[u:v] that are descendants-or-self of v immediately in front of u,
    preserving relative order within both groups. [is_desc_of_v id] must
    answer "is id a descendant of v (or v itself)?" against the *updated*
    reachability. O(|L[u:v]|). *)
let swap l u v ~is_desc_of_v =
  let iu = ord l u and iv = ord l v in
  if iu < iv then begin
    (* inverse: restore the permuted window verbatim (positions included;
       tombstones are skipped — their pos entries were never touched) *)
    if recording l then begin
      let saved = Array.sub l.arr iu (iv - iu + 1) in
      Journal.record l.journal (fun () ->
          Array.iteri
            (fun k id ->
              l.arr.(iu + k) <- id;
              if id >= 0 then l.pos.(id) <- iu + k)
            saved)
    end;
    let moved = ref [] and kept = ref [] in
    for i = iv downto iu do
      let id = l.arr.(i) in
      if id >= 0 then
        if id = v || is_desc_of_v id then moved := id :: !moved
        else kept := id :: !kept
    done;
    let window = !moved @ !kept in
    let i = ref iu in
    List.iter
      (fun id ->
        (* skip tombstones inside the window *)
        while l.arr.(!i) < 0 do
          incr i
        done;
        l.arr.(!i) <- id;
        l.pos.(id) <- !i;
        incr i)
      window
  end

(** [insert_before l ~anchor ids] splices the new nodes [ids], in list
    order, immediately before [anchor]. Only the tail from the anchor on
    shifts, in place (the array grows by amortized doubling): a fresh
    O(|L|) allocation per update would be paid mostly in GC work against
    the engine's live heap. *)
let insert_before l ~anchor ids =
  if ids <> [] then begin
    List.iter
      (fun id ->
        if mem l id then topo_error "insert_before: node %d already in L" id)
      ids;
    let ia = ord l anchor in
    let k = List.length ids in
    (* inverse: re-install the original array objects (growing swaps
       [l.arr], and [ensure_pos] may swap [l.pos]), clear the new ids'
       positions and rewrite the saved tail *)
    if recording l then begin
      let old_arr = l.arr and old_pos = l.pos in
      let old_len = l.len and old_live = l.live in
      let tail = Array.sub l.arr ia (l.len - ia) in
      Journal.record l.journal (fun () ->
          l.arr <- old_arr;
          l.pos <- old_pos;
          List.iter
            (fun id -> if id < Array.length old_pos then old_pos.(id) <- -1)
            ids;
          Array.iteri
            (fun i id ->
              old_arr.(ia + i) <- id;
              if id >= 0 then old_pos.(id) <- ia + i)
            tail;
          l.len <- old_len;
          l.live <- old_live)
    end;
    List.iter (ensure_pos l) ids;
    if l.len + k > Array.length l.arr then begin
      let arr =
        Array.make (max 8 (max (l.len + k) (2 * Array.length l.arr))) (-1)
      in
      Array.blit l.arr 0 arr 0 l.len;
      l.arr <- arr
    end;
    for i = l.len - 1 downto ia do
      let id = l.arr.(i) in
      l.arr.(i + k) <- id;
      if id >= 0 then l.pos.(id) <- i + k
    done;
    List.iteri
      (fun j id ->
        l.arr.(ia + j) <- id;
        l.pos.(id) <- ia + j)
      ids;
    l.len <- l.len + k;
    l.live <- l.live + k
  end

(** Validity oracle: every edge's child precedes its parent. Used by
    tests, not by the engine. *)
let is_valid l store =
  let ok = ref true in
  Store.iter_edges
    (fun u v _ ->
      if not (mem l u && mem l v && ord l v < ord l u) then ok := false)
    store;
  !ok && live_count l = Store.n_nodes store

(** Deep copy — used by test oracles; the copy gets a fresh journal with
    no open frames. *)
let copy l =
  {
    arr = Array.copy l.arr;
    len = l.len;
    pos = Array.copy l.pos;
    live = l.live;
    journal = Journal.create ();
  }
