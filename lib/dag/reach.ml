(** The reachability matrix M (Section 3.1) and Algorithm Reach (Fig. 4).

    M(anc, desc) holds exactly when [anc] is a proper ancestor of [desc].
    M is stored as one sparse bitset ({!Bitset.Sparse}) per node — the
    node's proper-ancestor set, indexed by node *slots* (the dense indexes
    the store hands out and recycles). With that layout Algorithm Reach's
    inner union is a word-wise OR (a sorted merge of the rows' nonzero
    words), [is_ancestor] a binary search + bit test and |M| a popcount.
    Rows store only their nonzero words: ancestor sets are a sliver of
    the slot universe (|M| ≪ n², Fig. 10(b)), so M costs O(|M|) memory,
    not O(n²/63) — at 100K cells the latter is gigabytes of live heap
    and loses to GC pressure everything the word-wise ops gain.

    Rows are bound to a specific store (for the slot↔id mapping);
    snapshots must pair a copied matrix with the copied store ({!copy}).
    Slots of removed nodes are recycled by the store — the maintenance
    algorithms clear a removed node's row ({!remove_row}) and rebuild the
    rows of its former descendants, so no stale bits survive a removal
    (property-tested). *)

module Sparse = Bitset.Sparse
module Journal = Rxv_relational.Journal

type t = {
  store : Store.t;
  mutable anc : Sparse.t array;  (** slot -> proper-ancestor slot set *)
  journal : Journal.t;
      (** undo journal; in-place row mutators copy-on-write each touched
          row once per frame, so abort restores only the touched rows *)
  mutable touched : (int, unit) Hashtbl.t list;
      (** per-frame set of slots already COW'd, innermost first — a stack
          parallel to the journal's frames *)
  mutable arr_shared : bool;
      (** the row array object is referenced by a frozen view; the next
          in-place write must copy the (pointer) array first *)
  mutable ever_frozen : bool;
      (** no freeze has happened yet ⇒ no view can alias any row, so
          in-place mutation needs no view copies at all *)
  privatized : (int, unit) Hashtbl.t;
      (** slots whose row object was created (or copied) since the last
          freeze — private to the live matrix, safe to mutate in place *)
}

let create (store : Store.t) : t =
  {
    store;
    anc = [||];
    journal = Journal.create ();
    touched = [];
    arr_shared = false;
    ever_frozen = false;
    privatized = Hashtbl.create 64;
  }

let journal m = m.journal

let begin_ m =
  Journal.begin_ m.journal;
  m.touched <- Hashtbl.create 16 :: m.touched

let commit m =
  Journal.commit m.journal;
  match m.touched with
  | top :: parent :: rest ->
      (* the parent frame inherits the marks: its own abort restores the
         original rows (the folded-in entries), so re-COWing is waste *)
      Hashtbl.iter (fun s () -> Hashtbl.replace parent s ()) top;
      m.touched <- parent :: rest
  | [ _ ] | [] -> m.touched <- []

let abort m =
  Journal.abort m.journal;
  match m.touched with [] -> () | _ :: rest -> m.touched <- rest

let recording m = Journal.recording m.journal

(* Lazy copy-on-write of the row (pointer) array against frozen views:
   one shallow copy on the first write after a freeze. Cells still alias
   the view's row objects — per-row privatization below handles those. *)
let unshare_arr m =
  if m.arr_shared then begin
    m.anc <- Array.copy m.anc;
    m.arr_shared <- false
  end

(* Grow the row array to cover [slot]; every cell owns its bitset. The
   object swap is journaled so undo closures recorded earlier (which
   write through [m.anc] at replay time) find the object they captured
   against restored first, by LIFO. The fresh array is private by
   construction; the undo restores the old sharing flag with it. *)
let ensure_slot m slot =
  let n = Array.length m.anc in
  if slot >= n then begin
    let n' = max (max 16 (2 * n)) (slot + 1) in
    let old = m.anc in
    let anc =
      Array.init n' (fun i -> if i < n then m.anc.(i) else Sparse.create ())
    in
    if recording m then begin
      let old_shared = m.arr_shared in
      Journal.record m.journal (fun () ->
          m.anc <- old;
          m.arr_shared <- old_shared)
    end;
    m.anc <- anc;
    m.arr_shared <- false
  end

(* Copy-on-write for in-place row mutation, against two kinds of alias:
   the first touch of a row in the innermost frame records "put the
   original bitset object back" and swaps in a private copy (abort is
   then O(touched rows), not O(M)); and the first touch since a freeze
   swaps in a private copy so the frozen view keeps the original. A
   journal rollback reinstates the pre-frame object, so it also clears
   the privatized mark it had installed. *)
let cow m sd =
  unshare_arr m;
  let saved = m.anc.(sd) in
  let journal_fresh =
    match m.touched with
    | top :: _ when recording m && not (Hashtbl.mem top sd) ->
        let was_priv = Hashtbl.mem m.privatized sd in
        Journal.record m.journal (fun () ->
            m.anc.(sd) <- saved;
            if not was_priv then Hashtbl.remove m.privatized sd);
        Hashtbl.replace top sd ();
        true
    | _ -> false
  in
  let view_fresh = m.ever_frozen && not (Hashtbl.mem m.privatized sd) in
  if journal_fresh || view_fresh then begin
    m.anc.(sd) <- Sparse.copy saved;
    Hashtbl.replace m.privatized sd ()
  end

(* Replace-style mutation: the old row object survives untouched (frozen
   views keep it), so recording its restoration needs no copy at all.
   Marks the row touched and privatized — the replacement object is
   fresh, in-place mutators may hit it directly. *)
let save_row m sd =
  unshare_arr m;
  (match m.touched with
  | top :: _ when recording m && not (Hashtbl.mem top sd) ->
      let saved = m.anc.(sd) in
      let was_priv = Hashtbl.mem m.privatized sd in
      Journal.record m.journal (fun () ->
          m.anc.(sd) <- saved;
          if not was_priv then Hashtbl.remove m.privatized sd);
      Hashtbl.replace top sd ()
  | _ -> ());
  Hashtbl.replace m.privatized sd ()

let slot_of m id = (Store.node m.store id).Store.slot

let row m slot =
  ensure_slot m slot;
  Array.unsafe_get m.anc slot

(** [is_ancestor m a d]: is [a] a proper ancestor of [d]? A bit test. *)
let is_ancestor m a d =
  Store.mem_node m.store a
  && Store.mem_node m.store d
  &&
  let sd = slot_of m d in
  sd < Array.length m.anc && Sparse.get m.anc.(sd) (slot_of m a)

let is_ancestor_or_self m a d = a = d || is_ancestor m a d

(** Ancestors of [d], as node ids. *)
let ancestors m d =
  let acc = ref [] in
  (if Store.mem_node m.store d then
     let sd = slot_of m d in
     if sd < Array.length m.anc then
       Sparse.iter_bits m.anc.(sd) (fun s ->
           match Store.id_of_slot m.store s with
           | Some a -> acc := a :: !acc
           | None -> ()));
  !acc

(** Total number of (anc, desc) pairs — the |M| of Fig. 10(b). *)
let size m = Array.fold_left (fun acc r -> acc + Sparse.pop_count r) 0 m.anc

let remove_pair m a d =
  if Store.mem_node m.store a && Store.mem_node m.store d then begin
    let sd = slot_of m d in
    if sd < Array.length m.anc then begin
      cow m sd;
      Sparse.clear m.anc.(sd) (slot_of m a)
    end
  end

(** Forget [id]'s row entirely (node removal; its slot may be recycled).
    Pairs with [id] on the ancestor side live in other rows and are the
    caller's responsibility, exactly as with the relational representation
    — Δ(M,L)delete rebuilds every affected descendant row first. *)
let remove_row m id =
  if Store.mem_node m.store id then begin
    let s = slot_of m id in
    if s < Array.length m.anc then begin
      save_row m s;
      m.anc.(s) <- Sparse.create ()
    end
  end

(** {2 Maintenance row operations} — the ΔM inner loops of Figs. 7–8,
    word-wise. *)

(* ∪_{p ∈ parents} ({slot p} ∪ anc(p)), as a fresh slot set. A parent
   equal to [d] contributes its bit but not a self-union (mirroring the
   guard of Δ(M,L)insert). *)
let bits_of_parents m d parents =
  let bits = Sparse.create () in
  List.iter
    (fun p ->
      let sp = slot_of m p in
      Sparse.set bits sp;
      if p <> d then Sparse.union_into ~dst:bits (row m sp))
    parents;
  bits

(** [absorb_parents m d ~parents]: anc(d) ∪= ∪_p ({p} ∪ anc(p)) — the
    row-growing step of Δ(M,L)insert (Fig. 7, lines 3–5). *)
let absorb_parents m d ~parents =
  let sd = slot_of m d in
  ensure_slot m sd;
  cow m sd;
  Sparse.union_into ~dst:m.anc.(sd) (bits_of_parents m d parents)

(** [replace_row_from_parents m d ~parents]: anc(d) := ∪_p ({p} ∪ anc(p))
    — the row-rebuilding step of Δ(M,L)delete (Fig. 8). *)
let replace_row_from_parents m d ~parents =
  let sd = slot_of m d in
  ensure_slot m sd;
  let bits = bits_of_parents m d parents in
  save_row m sd;
  m.anc.(sd) <- bits

(** {2 Read access for the DAG evaluator} — slot-set queries against the
    forward rows; [slot_of] lets callers build (dense) query sets
    themselves. *)

(** [anc_intersects m id bits]: does anc(id) meet the slot set [bits]? *)
let anc_intersects m id (bits : Bitset.t) =
  let s = slot_of m id in
  s < Array.length m.anc && Sparse.inter_dense m.anc.(s) bits

(** [union_row_into m id ~dst]: dst ∪= anc(id), word-wise. *)
let union_row_into m id ~(dst : Bitset.t) =
  let s = slot_of m id in
  if s < Array.length m.anc then Sparse.union_into_dense ~dst m.anc.(s)

(** Algorithm Reach (Fig. 4): M from the edge relations and the
    topological order. Processing L backwards (root side first)
    guarantees that when node d is reached every parent's ancestor set is
    final, so anc(d) = ∪_{p ∈ parent(d)} ({p} ∪ anc(p)); each union is a
    word-wise OR (sorted merge) over the parent's row. *)
let compute (store : Store.t) (l : Topo.t) : t =
  let m = create store in
  ensure_slot m (max 0 (Store.slot_capacity store - 1));
  Topo.iter_backward
    (fun d ->
      let parents = Store.parents store d in
      if parents <> [] then
        let rd = row m (slot_of m d) in
        List.iter
          (fun p ->
            let sp = slot_of m p in
            Sparse.set rd sp;
            if p <> d then Sparse.union_into ~dst:rd (row m sp))
          parents)
    l;
  m

(** Extensional equality over the same store — the oracle check
    "incremental maintenance ≡ recomputation". Both matrices must be
    bound to stores with identical slot assignments (in practice: the
    same store). *)
let equal (a : t) (b : t) (store : Store.t) =
  let empty = Sparse.create () in
  let row_of m s = if s < Array.length m.anc then m.anc.(s) else empty in
  Store.fold_nodes
    (fun n ok ->
      ok
      &&
      let s = n.Store.slot in
      Sparse.equal (row_of a s) (row_of b s))
    store true

(** Deep copy — snapshot support for transactional update groups. The
    copy is bound to [store], which must be the (copied) store the
    snapshot will restore: slot assignments are preserved by
    {!Store.copy}, so rows transfer as plain word-array copies. *)
let copy ~(store : Store.t) (m : t) : t =
  {
    store;
    anc = Array.map Sparse.copy m.anc;
    journal = Journal.create ();
    touched = [];
    arr_shared = false;
    ever_frozen = false;
    privatized = Hashtbl.create 64;
  }

(** {2 Frozen views (MVCC snapshot reads)}

    Freezing is O(1): it captures the row-array object and flags both
    the array and (by resetting the privatized set) every row as shared.
    The live matrix then pays one shallow pointer-array copy on its
    first in-place write after the freeze, plus one row copy per row it
    actually touches — O(touched rows) per writer batch, never a deep
    copy of M. Views address rows by slot; pair them with the
    {!Store.view} frozen in the same quiescent instant for the slot↔id
    mapping. Capture with no transaction frame open. *)

type view = { rv_anc : Sparse.t array }

let freeze m =
  m.arr_shared <- true;
  m.ever_frozen <- true;
  Hashtbl.reset m.privatized;
  { rv_anc = m.anc }

(** [view_anc_intersects v s bits]: does anc(slot s) meet the dense slot
    set [bits]? *)
let view_anc_intersects v s (bits : Bitset.t) =
  s < Array.length v.rv_anc && Sparse.inter_dense v.rv_anc.(s) bits

(** [view_union_row_into v s ~dst]: dst ∪= anc(slot s), word-wise. *)
let view_union_row_into v s ~(dst : Bitset.t) =
  if s < Array.length v.rv_anc then Sparse.union_into_dense ~dst v.rv_anc.(s)

(** Total number of (anc, desc) pairs in the view — |M| at capture. *)
let view_size v =
  Array.fold_left (fun acc r -> acc + Sparse.pop_count r) 0 v.rv_anc
