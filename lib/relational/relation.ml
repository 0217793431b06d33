(** Relation instances: key-indexed tuple stores with key-constraint
    enforcement.

    The primary index maps the key projection to the full tuple, which gives
    O(1) point lookups for the deletable-source computation of Algorithm
    delete (Section 4.2) and for the tuple-template key checks of Algorithm
    insert (Appendix A).

    Secondary hash indexes over arbitrary column sets ({!index_on}) back the
    hash joins of compiled SPJ plans. An index is built on first request by
    one scan, then maintained incrementally by {!insert} / {!delete_key} —
    so it survives across queries and stays correct under the transactional
    apply/rollback of update groups, which routes through these same two
    entry points. *)

type index = (Value.t list, Tuple.t list) Hashtbl.t

type t = {
  schema : Schema.relation;
  rows : (Value.t list, Tuple.t) Hashtbl.t;
  indexes : (int list, index) Hashtbl.t;
      (** column positions (ascending-free, as requested) -> buckets *)
  mutable journal : Journal.t option;
      (** undo journal this relation records into — shared across a
          database's relations ({!Database.attach}); [None] for
          standalone relations *)
  mutable int_max : int;
      (** upper bound on every [Value.Int] field of every row (0 when
          none), raised by every insert; exact unless a delete removed a
          row holding it since the last rescan ([int_max_valid] false),
          after which {!int_ceiling} rescans lazily *)
  mutable int_max_valid : bool;
}

exception Key_violation of string

let key_violation fmt = Fmt.kstr (fun s -> raise (Key_violation s)) fmt

let create schema =
  {
    schema;
    rows = Hashtbl.create 64;
    indexes = Hashtbl.create 4;
    journal = None;
    int_max = 0;
    int_max_valid = true;
  }

let set_journal r j = r.journal <- Some j
let journal r = r.journal

let schema r = r.schema
let cardinal r = Hashtbl.length r.rows

let find_by_key r key = Hashtbl.find_opt r.rows key

let mem_key r key = Hashtbl.mem r.rows key

(** [mem r t] holds when exactly [t] (not merely a tuple with the same key)
    is present. *)
let mem r t =
  match find_by_key r (Tuple.key_of r.schema t) with
  | Some t' -> Tuple.equal t t'
  | None -> false

let project cols (t : Tuple.t) = List.map (fun c -> t.(c)) cols

let tuple_int_max (t : Tuple.t) =
  Array.fold_left
    (fun m v -> match v with Value.Int i when i > m -> i | _ -> m)
    0 t

(** [int_ceiling r] is the largest [Value.Int] appearing in any field of
    any row (0 when there is none). Maintained as a watermark so callers
    that need fresh integer values outside the relation's range (the
    insertion translator's variable freshener) pay O(1) per query instead
    of a full scan. *)
let int_ceiling r =
  if not r.int_max_valid then begin
    r.int_max <- Hashtbl.fold (fun _ t m -> max m (tuple_int_max t)) r.rows 0;
    r.int_max_valid <- true
  end;
  r.int_max

(** [int_watermark r] is {!int_ceiling} without the rescan: [`Exact] when
    the watermark is current, otherwise [`At_most] an upper bound. *)
let int_watermark r =
  if r.int_max_valid then `Exact r.int_max else `At_most r.int_max

let index_add idx cols t =
  let k = project cols t in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt idx k) in
  Hashtbl.replace idx k (t :: bucket)

(* removal is by physical identity: the bucket holds the same array the
   primary index holds *)
let index_remove idx cols t =
  let k = project cols t in
  match Hashtbl.find_opt idx k with
  | None -> ()
  | Some bucket -> (
      match List.filter (fun t' -> t' != t) bucket with
      | [] -> Hashtbl.remove idx k
      | bucket' -> Hashtbl.replace idx k bucket')

(** [index_on r cols] is the secondary hash index of [r] over column
    positions [cols]: projection-of-[cols] -> matching tuples. Built by one
    scan on first request, kept current by {!insert}/{!delete_key}
    afterwards. The result is live — do not mutate it. *)
let index_on r cols : index =
  match Hashtbl.find_opt r.indexes cols with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (max 16 (Hashtbl.length r.rows)) in
      Hashtbl.iter (fun _ t -> index_add idx cols t) r.rows;
      Hashtbl.replace r.indexes cols idx;
      idx

(* Record an inverse tuple op into the attached journal, if one is open.
   The inverses go through the public entry points below, so replaying
   them maintains the secondary indexes incrementally — rollback no
   longer needs to drop the index cache (recording is suppressed during
   replay, see {!Journal}). *)
let record r undo =
  match r.journal with
  | Some j when Journal.recording j -> Journal.record j undo
  | Some _ | None -> ()

(** [insert r t] adds [t]. Re-inserting an identical tuple is a no-op;
    inserting a different tuple under an existing key raises
    {!Key_violation}, mirroring a primary-key constraint. *)
let rec insert r t =
  Tuple.check r.schema t;
  let key = Tuple.key_of r.schema t in
  match Hashtbl.find_opt r.rows key with
  | None ->
      Hashtbl.replace r.rows key t;
      Hashtbl.iter (fun cols idx -> index_add idx cols t) r.indexes;
      (let m = tuple_int_max t in
       if m > r.int_max then r.int_max <- m);
      record r (fun () -> ignore (delete_key r key))
  | Some t' when Tuple.equal t t' -> ()
  | Some _ ->
      key_violation "relation %s: key %a already bound to a different tuple"
        r.schema.Schema.rname
        (Fmt.list ~sep:(Fmt.any ",") Value.pp)
        key

(** [delete_key r key] removes the tuple with key [key] if present; returns
    whether a tuple was removed. *)
and delete_key r key =
  match Hashtbl.find_opt r.rows key with
  | None -> false
  | Some t ->
      Hashtbl.remove r.rows key;
      Hashtbl.iter (fun cols idx -> index_remove idx cols t) r.indexes;
      (if r.int_max_valid && r.int_max > 0 && tuple_int_max t = r.int_max then
         r.int_max_valid <- false);
      record r (fun () -> insert r t);
      true

let delete r t = delete_key r (Tuple.key_of r.schema t)

let iter f r = Hashtbl.iter (fun _ t -> f t) r.rows
let fold f r acc = Hashtbl.fold (fun _ t acc -> f t acc) r.rows acc

let to_list r =
  let l = fold (fun t acc -> t :: acc) r [] in
  List.sort Tuple.compare l

(* the copy starts with an empty index cache (indexes hold physical tuple
   references into *this* relation and rebuild on demand in the copy) and
   no journal: a copy is an independent instance. *)
let copy r =
  {
    schema = r.schema;
    rows = Hashtbl.copy r.rows;
    indexes = Hashtbl.create 4;
    journal = None;
    int_max = r.int_max;
    int_max_valid = r.int_max_valid;
  }

(** [drop_indexes r] discards every secondary index (they rebuild on
    demand) — lets benchmarks measure genuinely cold probe paths and
    callers reclaim memory after a bulk load. *)
let drop_indexes r = Hashtbl.reset r.indexes

(** [select_eq r col v] scans for tuples whose attribute at position [col]
    equals [v]. Callers needing repeated lookups should use {!index_on}. *)
let select_eq r col v =
  fold (fun t acc -> if Value.equal t.(col) v then t :: acc else acc) r []

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@,%a@]" Schema.pp_relation r.schema
    (Fmt.list ~sep:Fmt.cut Tuple.pp)
    (to_list r)
