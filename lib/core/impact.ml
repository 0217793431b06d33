(** Which parents a base tuple feeds through a star rule.

    For rule [q] of parent type [a_type], the parents whose child set may
    involve the tuple keyed [key] in relation occurrence [alias] are
    found by evaluating [q] with that occurrence pinned to [key] and the
    parameters replaced by the columns equated with them, projecting
    those columns: the parents' semantic attributes, which {!parents}
    maps to the live nodes. Two callers share it: {!Base_update} localizes the parents a ΔR must
    reconcile, and {!Vdelete} the parents whose edges may still
    reference a candidate source. *)

module Store = Rxv_dag.Store
module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple
module Schema = Rxv_relational.Schema
module Spj = Rxv_relational.Spj
module Eval = Rxv_relational.Eval
module Database = Rxv_relational.Database
module Atg = Rxv_atg.Atg

(* the parents' semantic attributes; [None] means the impact could not
   be localized (a parameter without a column binding) *)
let params (db : Database.t) (atg : Atg.t) a_type (q : Spj.t) ~alias
    ~(rname : string) (key : Value.t list) : Tuple.t list option =
  let nparams = Array.length (Atg.attr_tys atg a_type) in
  let rel = Schema.find_relation (Database.schema db) rname in
  let key_names = Schema.key_names rel in
  let pin =
    List.map2
      (fun attr v -> Spj.eq (Spj.col alias attr) (Spj.const v))
      key_names key
  in
  (* param bindings: a column equated with each $k *)
  let binding = Array.make nparams None in
  List.iter
    (fun (Spj.Eq (x, y)) ->
      match (x, y) with
      | Spj.Col (al, at), Spj.Param k | Spj.Param k, Spj.Col (al, at) ->
          if k < nparams && binding.(k) = None then binding.(k) <- Some (al, at)
      | _ -> ())
    q.Spj.where;
  if nparams > 0 && Array.exists (fun b -> b = None) binding then None
  else begin
    let subst = function
      | Spj.Param k when k < nparams -> (
          match binding.(k) with Some (al, at) -> Spj.Col (al, at) | None -> assert false)
      | op -> op
    in
    let where' =
      pin
      @ List.filter_map
          (fun (Spj.Eq (x, y)) ->
            match (x, y) with
            | Spj.Col (al, at), Spj.Param k | Spj.Param k, Spj.Col (al, at)
              when k < nparams && binding.(k) = Some (al, at) ->
                None
            | _ -> Some (Spj.Eq (subst x, subst y)))
          q.Spj.where
    in
    let select' =
      List.init nparams (fun k ->
          match binding.(k) with
          | Some (al, at) -> (Printf.sprintf "$p%d" k, Spj.Col (al, at))
          | None -> assert false)
    in
    let select' =
      if select' = [] then [ ("$one", Spj.const (Value.Int 1)) ] else select'
    in
    let q' =
      Spj.make ~name:(q.Spj.qname ^ "#impact") ~from:q.Spj.from ~where:where'
        ~select:select'
    in
    let rows = Eval.run db q' () in
    if nparams = 0 then Some (if rows = [] then [] else [ [||] ])
    else Some (List.sort_uniq Tuple.compare rows)
  end

let parents (db : Database.t) (atg : Atg.t) (store : Store.t) a_type
    (q : Spj.t) ~alias ~rname key : int list =
  match params db atg a_type q ~alias ~rname key with
  | Some ps -> List.filter_map (Store.find_id store a_type) ps
  | None -> Store.gen_ids store a_type
