(** Generation-keyed incremental result cache (see eval_cache.mli).

    Soundness argument, in terms of the invariants maintained:

    - [entry.gen_valid = t.generation] and [Bitset.is_empty entry.dirty]
      ⟹ [entry.tables] equals a fresh bottom-up fill and [entry.result]
      equals a fresh eval, for the current store/L/M.
    - Every structural mutation calls {!invalidate} (or
      {!invalidate_all}) after maintenance, bumping the generation and
      OR-ing the changed nodes' slots ∪ their ancestors' slots ∪ freed
      slots into every entry's dirty set. A node's bottom-up value
      depends only on its descendants, so rows outside the dirty set are
      unchanged — {!Dag_eval.revalidate_src} over the dirty rows restores
      the first invariant.
    - While a journal frame is open {e and has already invalidated}
      ([frame_clean = false]), live queries bypass the cache, so no
      entry is ever created or revalidated against a state that an
      abort can roll back; the only mid-frame mutations are
      [invalidate]'s, which copy-on-write the dirty bitsets and journal
      the generation — abort restores both exactly. Before the frame's
      first invalidation the open frame has mutated nothing: the live
      state still {e is} the committed generation, so serving, filling,
      promoting, or revalidating an entry describes committed state and
      stays truthful whether the frame commits or aborts (an abort
      merely returns to the very state the entry was repaired against,
      and the generation itself has not moved). This is what lets the
      first update of a group reuse tables warmed by earlier reads — or
      left one-mutation-stale by the previous group — instead of paying
      a full O(|p|·|V|) DP per write. Generation-pinned snapshot
      queries ({!query_src}) need no bypass at all: they evaluate
      immutable frozen views of committed state, so any entry they
      create, promote, or revalidate mid-frame describes the pinned
      committed generation — true regardless of how the frame ends.
    - Freed slots stay dirty until the next revalidation even if
      re-occupied: the store recycles slots only for new nodes, and new
      nodes are in the next update's touched set anyway.

    The text-length memo needs no journaling: it is a pure function of
    the current store, revalidation re-measures every row it recomputes,
    entries for touched ids (deleted nodes among them) are dropped
    eagerly, and bypassed queries never populate it with rollback-able
    ids. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Bitset = Rxv_dag.Bitset
module Ast = Rxv_xpath.Ast
module Plan = Rxv_xpath.Plan
module Journal = Rxv_relational.Journal

type counters = {
  hits : int;
  misses : int;
  partials : int;
  evictions : int;
  invalidations : int;
  recomputed_rows : int;
}

type entry = {
  plan : Plan.t;
  tables : Dag_eval.tables;
  mutable gen_valid : int;
  mutable dirty : Bitset.t;
  mutable result : Dag_eval.result;
  mutable stamp : int;  (** LRU clock value of the last use *)
}

type t = {
  mutable generation : int;
  entries : (string, entry) Hashtbl.t;  (** keyed by Plan.key *)
  plans : (Ast.path, Plan.t) Hashtbl.t;  (** structural compile memo *)
  cap : int;
  mutable tick : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_partials : int;
  mutable c_evictions : int;
  mutable c_invalidations : int;
  mutable c_recomputed_rows : int;
  journal : Journal.t;
  (* per-frame set of entry keys whose dirty bitset was already
     copy-on-written in that frame — same discipline as Reach *)
  mutable touched : (string, unit) Hashtbl.t list;
  (* true while an open frame stack has not yet invalidated: the live
     state still equals the committed generation, so live queries may
     use the cache (see the soundness argument above). Meaningless when
     no frame is open. *)
  mutable frame_clean : bool;
  lock : Mutex.t;
}

let default_cap = 64
let plan_memo_cap = 1024

let create ?(cap = default_cap) () =
  {
    generation = 0;
    entries = Hashtbl.create 16;
    plans = Hashtbl.create 64;
    cap = max 1 cap;
    tick = 0;
    c_hits = 0;
    c_misses = 0;
    c_partials = 0;
    c_evictions = 0;
    c_invalidations = 0;
    c_recomputed_rows = 0;
    journal = Journal.create ();
    touched = [];
    frame_clean = false;
    lock = Mutex.create ();
  }

let generation t = t.generation
let recording t = Journal.recording t.journal

let counters t =
  {
    hits = t.c_hits;
    misses = t.c_misses;
    partials = t.c_partials;
    evictions = t.c_evictions;
    invalidations = t.c_invalidations;
    recomputed_rows = t.c_recomputed_rows;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- transactions ---- *)

let begin_ t =
  with_lock t (fun () ->
      (* opening the outermost frame: nothing has mutated yet. A nested
         frame inherits the parent's cleanliness — and never restores
         it, so a dirty inner abort conservatively keeps the stack
         dirty. *)
      if not (Journal.recording t.journal) then t.frame_clean <- true;
      Journal.begin_ t.journal;
      t.touched <- Hashtbl.create 8 :: t.touched)

let commit t =
  with_lock t (fun () ->
      Journal.commit t.journal;
      match t.touched with
      | top :: parent :: rest ->
          Hashtbl.iter (fun k () -> Hashtbl.replace parent k ()) top;
          t.touched <- parent :: rest
      | [ _ ] | [] -> t.touched <- [])

let abort t =
  with_lock t (fun () ->
      Journal.abort t.journal;
      match t.touched with [] -> () | _ :: rest -> t.touched <- rest)

(* ---- invalidation ---- *)

let bump_generation t =
  t.frame_clean <- false;
  if Journal.recording t.journal then begin
    let saved = t.generation in
    Journal.record t.journal (fun () -> t.generation <- saved)
  end;
  t.generation <- t.generation + 1

(* copy-on-write an entry's dirty bitset into the current frame, once *)
let cow_dirty t e =
  match t.touched with
  | top :: _ when Journal.recording t.journal ->
      let k = Plan.key e.plan in
      if not (Hashtbl.mem top k) then begin
        let saved = e.dirty in
        Journal.record t.journal (fun () -> e.dirty <- saved);
        e.dirty <- Bitset.copy saved;
        Hashtbl.replace top k ()
      end
  | _ -> ()

let invalidate t ~(store : Store.t) ~(reach : Reach.t) ~touched ~freed_slots
    =
  with_lock t (fun () ->
      t.c_invalidations <- t.c_invalidations + 1;
      bump_generation t;
      if Hashtbl.length t.entries > 0 then begin
        (* stale rows = touched nodes ∪ ancestors(touched) under the
           post-update M, plus any slot a deleted node vacated *)
        let bits = Bitset.create () in
        List.iter
          (fun id ->
            if Store.mem_node store id then begin
              Bitset.set bits (Reach.slot_of reach id);
              Reach.union_row_into reach id ~dst:bits
            end)
          touched;
        List.iter (fun s -> Bitset.set bits s) freed_slots;
        Hashtbl.iter
          (fun _ e ->
            cow_dirty t e;
            Bitset.union_into ~dst:e.dirty bits;
            List.iter (Dag_eval.drop_text_len e.tables) touched)
          t.entries
      end)

let invalidate_all t ~slot_capacity =
  with_lock t (fun () ->
      t.c_invalidations <- t.c_invalidations + 1;
      bump_generation t;
      if Hashtbl.length t.entries > 0 then begin
        let bits = Bitset.create () in
        for s = 0 to slot_capacity - 1 do
          Bitset.set bits s
        done;
        Hashtbl.iter
          (fun _ e ->
            cow_dirty t e;
            Bitset.union_into ~dst:e.dirty bits;
            Dag_eval.reset_text_len e.tables)
          t.entries
      end)

(* ---- lookup ---- *)

let plan_of t path =
  match Hashtbl.find_opt t.plans path with
  | Some p -> p
  | None ->
      if Hashtbl.length t.plans >= plan_memo_cap then Hashtbl.reset t.plans;
      let p = Plan.compile path in
      Hashtbl.replace t.plans path p;
      p

let evict_if_full t =
  if Hashtbl.length t.entries >= t.cap then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, s) when s <= e.stamp -> acc
          | _ -> Some (k, e.stamp))
        t.entries None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.entries k;
        t.c_evictions <- t.c_evictions + 1
    | None -> ()
  end

(* serve an entry whose tables/result are valid at the requested
   generation *)
let serve t e =
  t.c_hits <- t.c_hits + 1;
  e.result

(* [pin = None]: evaluate against the current generation — the live read
   path. [pin = Some g]: an MVCC snapshot read; [src] reads the frozen
   views of generation [g]. When [g] is still the current generation
   (the common case — the server re-publishes a snapshot after every
   batch) the snapshot query gets the cache's full benefit, including
   partial revalidation: the views are byte-for-byte the generation's
   state, so repairing the shared entry through them is sound even while
   the live structures have moved on. A pinned read at an older
   generation serves a cached result only if the entry is valid at
   exactly that generation, and never mutates the entry past it;
   otherwise it falls back to a fresh, uncached evaluation of the
   views. *)
let run_query t (src : Dag_eval.src) ~pin path =
  if recording t && (not t.frame_clean) && pin = None then
    (* a journal frame is open AND has already mutated state, and this
       is a LIVE read: evaluate fresh, touch nothing — caching would
       capture half-applied state. While the frame is still clean the
       live state equals the committed generation, so the cache path
       below is sound (this is how the first update of a group reuses
       warm tables — see the header). Pinned snapshot reads need no
       bypass either way: they evaluate immutable frozen views of
       committed state, so if no invalidate has run yet in the frame
       ([t.generation] still equals the pinned [g]) revalidating an
       entry against the views leaves it truthfully clean-at-[g]
       whether the frame commits or aborts, and once the generation
       moves past [g] the pinned read can only serve an entry's
       untouched generation-[g] memo or fall back to a fresh eval. *)
    Dag_eval.eval_src src path
  else
    with_lock t (fun () ->
        let plan = plan_of t path in
        t.tick <- t.tick + 1;
        let g = match pin with Some g -> g | None -> t.generation in
        let current = g = t.generation in
        match Hashtbl.find_opt t.entries (Plan.key plan) with
        | Some e when current ->
            e.stamp <- t.tick;
            if e.gen_valid = t.generation then serve t e
            else if Bitset.is_empty e.dirty then begin
              (* the generation moved but nothing this entry depends on
                 changed (all observed mutations were rolled back or
                 touched nothing): promote *)
              e.gen_valid <- t.generation;
              serve t e
            end
            else begin
              t.c_partials <- t.c_partials + 1;
              t.c_recomputed_rows <-
                t.c_recomputed_rows
                + Dag_eval.revalidate_src src e.plan e.tables ~dirty:e.dirty;
              e.dirty <- Bitset.create ();
              let r = Dag_eval.top_down_src src e.plan e.tables in
              e.result <- r;
              e.gen_valid <- t.generation;
              r
            end
        | Some e when e.gen_valid = g ->
            (* pinned to the exact generation the entry is valid at *)
            e.stamp <- t.tick;
            serve t e
        | Some _ ->
            (* pinned to a generation the entry has left behind *)
            t.c_misses <- t.c_misses + 1;
            Dag_eval.eval_plan_src src plan
        | None when current ->
            t.c_misses <- t.c_misses + 1;
            evict_if_full t;
            let tables = Dag_eval.create_tables plan in
            Dag_eval.bottom_up_src src plan tables;
            let r = Dag_eval.top_down_src src plan tables in
            Hashtbl.replace t.entries (Plan.key plan)
              {
                plan;
                tables;
                gen_valid = t.generation;
                dirty = Bitset.create ();
                result = r;
                stamp = t.tick;
              };
            r
        | None ->
            t.c_misses <- t.c_misses + 1;
            Dag_eval.eval_plan_src src plan)

let query t store l m path =
  run_query t (Dag_eval.live_src store l m) ~pin:None path

(** [query_src t src ~generation path]: an MVCC snapshot read — see
    {!run_query}. *)
let query_src t (src : Dag_eval.src) ~generation path =
  run_query t src ~pin:(Some generation) path
