(** Generation-keyed incremental result cache (see eval_cache.mli).

    Soundness argument, in terms of the invariants maintained:

    - Every cell an entry's tables know is exact for the state at
      [entry.gen_valid] once the slots of [entry.dirty] are forgotten
      ({!Dag_eval.forget}); with [entry.gen_valid = t.generation] and
      [Bitset.is_empty entry.dirty], [entry.result] equals a fresh eval
      for the current store/L/M.
    - Every structural mutation calls {!invalidate} (or
      {!invalidate_all}) after maintenance, bumping the generation and
      OR-ing the slots of the nodes whose children changed or that it
      created ∪ their ancestors' slots ∪ freed slots into every entry's
      dirty set. A cell, a text length and a label-row bit depend only on
      their node and its descendants, so those outside the dirty set are
      unchanged: forgetting the dirty slots and running the top-down pass
      again, which recomputes every cell it reads that is not known,
      restores the first invariant.
    - The generation never goes back, so each generation names one
      state: an entry valid at [g] describes the state at [g], and a
      snapshot pinned at [g] may be served from it.
    - Each open transaction frame keeps one bitset: the union of the
      rows its invalidations dirtied. A row that differs between the
      state at {!begin_} and any state inside the frame changed at some
      step, and that step's invalidation put it in the frame's bitset.
      So an abort is one more invalidation: it ORs the frame's rows into
      every entry's dirty set and bumps the generation, and an entry
      that a read inside the frame served, promoted or repaired is
      repaired back to the restored state by the next read. Commit and
      abort fold the frame's rows into the enclosing frame, whose own
      abort must undo them too.
    - A miss fills a new entry only while no open frame has written.
      This is for memory, not soundness: a group's one-off delete paths
      would otherwise fill the LRU with entries no later read uses.
    - Freed slots stay dirty until the next read of each entry even if
      re-occupied: the store recycles slots only for new nodes, and new
      nodes are in the next update's touched set anyway.

    Text lengths are memoized by slot, like cells, so they are forgotten
    with them and need nothing else, at abort or anywhere. *)

module Store = Rxv_dag.Store
module Reach = Rxv_dag.Reach
module Bitset = Rxv_dag.Bitset
module Ast = Rxv_xpath.Ast
module Plan = Rxv_xpath.Plan

type counters = {
  hits : int;
  misses : int;
  partials : int;
  evictions : int;
  invalidations : int;
  recomputed_cells : int;
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
  mutable c_recomputed_cells : int;
  mutable frames : Bitset.t list;
      (** open transaction frames, innermost first: the rows each one's
          invalidations dirtied *)
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
    c_recomputed_cells = 0;
    frames = [];
    lock = Mutex.create ();
  }

let generation t = t.generation

let counters t =
  {
    hits = t.c_hits;
    misses = t.c_misses;
    partials = t.c_partials;
    evictions = t.c_evictions;
    invalidations = t.c_invalidations;
    recomputed_cells = t.c_recomputed_cells;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- invalidation ---- *)

(* bump the generation and OR the rows [bits ()] into the innermost open
   frame and every entry's dirty set. With no entry and no open frame
   nobody reads the rows. *)
let dirty_rows t bits =
  t.c_invalidations <- t.c_invalidations + 1;
  t.generation <- t.generation + 1;
  if Hashtbl.length t.entries > 0 || t.frames <> [] then begin
    let bits = bits () in
    (match t.frames with f :: _ -> Bitset.union_into ~dst:f bits | [] -> ());
    Hashtbl.iter (fun _ e -> Bitset.union_into ~dst:e.dirty bits) t.entries
  end

let invalidate t ~(store : Store.t) ~(reach : Reach.t) ~touched ~freed_slots
    =
  with_lock t (fun () ->
      dirty_rows t (fun () ->
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
          bits))

let invalidate_all t ~slot_capacity =
  with_lock t (fun () ->
      dirty_rows t (fun () ->
          let bits = Bitset.create () in
          for s = 0 to slot_capacity - 1 do
            Bitset.set bits s
          done;
          bits))

(* ---- transactions ---- *)

let begin_ t = with_lock t (fun () -> t.frames <- Bitset.create () :: t.frames)

let commit t =
  with_lock t (fun () ->
      match t.frames with
      | f :: parent :: rest ->
          Bitset.union_into ~dst:parent f;
          t.frames <- parent :: rest
      | [ _ ] | [] -> t.frames <- [])

(* the state returns to the frame's begin: re-dirty every row the frame
   changed, and fold them into the enclosing frame *)
let abort t =
  with_lock t (fun () ->
      match t.frames with
      | [] -> ()
      | f :: rest ->
          t.frames <- rest;
          if not (Bitset.is_empty f) then dirty_rows t (fun () -> f))

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
   path, inside a transaction frame or not. [pin = Some g]: an MVCC
   snapshot read; [src] reads the frozen views of generation [g]. When
   [g] is still the current generation (the common case — the server
   re-publishes a snapshot after every batch) the snapshot query gets
   the cache's full benefit, including partial revalidation: the views
   are byte-for-byte the generation's state, so repairing the shared
   entry through them is sound even while the live structures have moved
   on. A pinned read at an older generation serves a cached result only
   if the entry is valid at exactly that generation, and never mutates
   the entry past it; otherwise it falls back to a fresh, uncached
   evaluation of the views. *)
let run_query t (src : Dag_eval.src) ~pin path =
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
            (* the generation moved but no row this entry depends on
               changed: promote *)
            e.gen_valid <- t.generation;
            serve t e
          end
          else begin
            t.c_partials <- t.c_partials + 1;
            let cells = Dag_eval.cells_computed e.tables in
            Dag_eval.forget src e.plan e.tables ~dirty:e.dirty;
            e.dirty <- Bitset.create ();
            let r = Dag_eval.top_down_src src e.plan e.tables in
            t.c_recomputed_cells <-
              t.c_recomputed_cells + Dag_eval.cells_computed e.tables - cells;
            e.result <- r;
            e.gen_valid <- t.generation;
            r
          end
      | Some e when e.gen_valid = g ->
          (* pinned to the exact generation the entry is valid at *)
          e.stamp <- t.tick;
          serve t e
      | None when current && List.for_all Bitset.is_empty t.frames ->
          t.c_misses <- t.c_misses + 1;
          evict_if_full t;
          let tables = Dag_eval.create_tables plan in
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
      | Some _ | None ->
          (* pinned to a generation the entry has left behind, or a
             path first read after an open frame wrote *)
          t.c_misses <- t.c_misses + 1;
          Dag_eval.eval_plan_src src plan)

let query t (src : Dag_eval.src) path = run_query t src ~pin:None path

(** [query_src t src ~generation path]: an MVCC snapshot read — see
    {!run_query}. *)
let query_src t (src : Dag_eval.src) ~generation path =
  run_query t src ~pin:(Some generation) path
