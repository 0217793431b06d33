(** Databases: named relation instances over a {!Schema.db}.

    Every database owns one undo {!Journal} shared by all its relations:
    while a transaction frame is open ({!begin_}), tuple mutations record
    their inverses, and {!abort} rolls the whole database back in O(Δ)
    instead of the O(database) a deep {!copy} costs. *)

type t = {
  schema : Schema.db;
  instances : (string, Relation.t) Hashtbl.t;
  journal : Journal.t;
}

let create schema =
  let instances = Hashtbl.create 8 in
  let journal = Journal.create () in
  List.iter
    (fun r ->
      let inst = Relation.create r in
      Relation.set_journal inst journal;
      Hashtbl.replace instances r.Schema.rname inst)
    schema.Schema.relations;
  { schema; instances; journal }

let schema db = db.schema
let journal db = db.journal

let begin_ db = Journal.begin_ db.journal
let commit db = Journal.commit db.journal
let abort db = Journal.abort db.journal

let relation db name =
  match Hashtbl.find_opt db.instances name with
  | Some r -> r
  | None -> Schema.schema_error "database has no relation %s" name

let insert db name t = Relation.insert (relation db name) t
let delete_key db name key = Relation.delete_key (relation db name) key

let mem_key db name key = Relation.mem_key (relation db name) key
let find_by_key db name key = Relation.find_by_key (relation db name) key

let cardinal db = Hashtbl.fold (fun _ r n -> n + Relation.cardinal r) db.instances 0

(** [int_ceiling db] is the largest {!Relation.int_ceiling} of any
    relation. The exact watermarks are taken first; a stale one is
    rescanned only when its bound exceeds the best found so far. *)
let int_ceiling db =
  let exact, stale =
    Hashtbl.fold
      (fun _ r (best, stale) ->
        match Relation.int_watermark r with
        | `Exact m -> (max best m, stale)
        | `At_most m -> (best, (m, r) :: stale))
      db.instances (0, [])
  in
  List.fold_left
    (fun best (bound, r) ->
      if bound > best then max best (Relation.int_ceiling r) else best)
    exact stale

(** Deep copy, used by test oracles (e.g. comparing journal-based abort
    against an independently captured state). The copy gets its own fresh
    journal with no open frames. *)
let copy db =
  let instances = Hashtbl.create (Hashtbl.length db.instances) in
  let journal = Journal.create () in
  Hashtbl.iter
    (fun name r ->
      let c = Relation.copy r in
      Relation.set_journal c journal;
      Hashtbl.replace instances name c)
    db.instances;
  { schema = db.schema; instances; journal }

let iter_relations f db =
  List.iter
    (fun r -> f r.Schema.rname (relation db r.Schema.rname))
    db.schema.Schema.relations

(** [equal a b] is extensional equality of all instances (used as a test
    oracle): same relation names, and tuple-for-tuple identical contents. *)
let equal a b =
  let names db =
    List.sort compare (List.map (fun r -> r.Schema.rname) db.Schema.relations)
  in
  names a.schema = names b.schema
  && List.for_all
       (fun r ->
         let name = r.Schema.rname in
         let ra = relation a name and rb = relation b name in
         Relation.cardinal ra = Relation.cardinal rb
         && Relation.fold (fun t ok -> ok && Relation.mem rb t) ra true)
       a.schema.Schema.relations

let pp ppf db =
  iter_relations (fun _ r -> Fmt.pf ppf "%a@." Relation.pp r) db
