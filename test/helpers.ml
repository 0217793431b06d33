(* Shared test utilities: naive reference implementations that the
   optimized library code is checked against, and generators for random
   DAG views. *)

module Value = Rxv_relational.Value
module Schema = Rxv_relational.Schema
module Tuple = Rxv_relational.Tuple
module Relation = Rxv_relational.Relation
module Database = Rxv_relational.Database
module Spj = Rxv_relational.Spj
module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Synth = Rxv_workload.Synth
module Engine = Rxv_core.Engine

(* ---- naive SPJ evaluation: full cross product, then filter ---- *)

let naive_spj_run (db : Database.t) (q : Spj.t) ?(params = [||]) () :
    Tuple.t list =
  let schema = Database.schema db in
  let rels =
    List.map (fun (_, rname) -> Relation.to_list (Database.relation db rname))
      q.Spj.from
  in
  let alias_pos alias =
    let rec go i = function
      | (a, _) :: _ when a = alias -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> failwith "alias"
    in
    go 0 q.Spj.from
  in
  let col alias attr env =
    let (_, rname) = List.nth q.Spj.from (alias_pos alias) in
    let r = Schema.find_relation schema rname in
    (List.nth env (alias_pos alias)).(Schema.attr_index r attr)
  in
  let operand env = function
    | Spj.Col (a, at) -> col a at env
    | Spj.Const v -> v
    | Spj.Param k -> params.(k)
  in
  let rec product = function
    | [] -> [ [] ]
    | r :: rest ->
        let tails = product rest in
        List.concat_map (fun t -> List.map (fun tl -> t :: tl) tails) r
  in
  let rows =
    List.filter_map
      (fun env ->
        if
          List.for_all
            (fun (Spj.Eq (a, b)) ->
              Value.equal (operand env a) (operand env b))
            q.Spj.where
        then
          Some
            (Array.of_list (List.map (fun (_, op) -> operand env op) q.Spj.select))
        else None)
      (product rels)
  in
  List.sort_uniq Tuple.compare rows

(* ---- naive transitive closure over a store ---- *)

let naive_ancestors (store : Store.t) : (int, (int, unit) Hashtbl.t) Hashtbl.t
    =
  let anc = Hashtbl.create 64 in
  let tbl id =
    match Hashtbl.find_opt anc id with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.replace anc id t;
        t
  in
  Store.iter_nodes (fun n -> ignore (tbl n.Store.id)) store;
  (* iterate to fixpoint (small test stores only) *)
  let changed = ref true in
  while !changed do
    changed := false;
    Store.iter_edges
      (fun u v _ ->
        let tv = tbl v in
        if not (Hashtbl.mem tv u) then begin
          Hashtbl.replace tv u ();
          changed := true
        end;
        Hashtbl.iter
          (fun a () ->
            if not (Hashtbl.mem tv a) then begin
              Hashtbl.replace tv a ();
              changed := true
            end)
          (tbl u))
      store
  done;
  anc

let reach_matches_naive (store : Store.t) (m : Reach.t) : bool =
  let naive = naive_ancestors store in
  Store.fold_nodes
    (fun n ok ->
      ok
      &&
      let expect =
        Hashtbl.fold (fun a () acc -> a :: acc)
          (Hashtbl.find naive n.Store.id) []
        |> List.sort compare
      in
      let got = List.sort compare (Reach.ancestors m n.Store.id) in
      expect = got)
    store true

(* ---- random synthetic views for property tests ---- *)

let small_dataset_gen =
  QCheck2.Gen.(
    let* n = int_range 12 60 in
    let* levels = int_range 2 5 in
    let* fanout = int_range 1 4 in
    let* seed = int_range 0 10_000 in
    return (Synth.default_params ~levels ~fanout ~seed n))

let engine_of_params p =
  let d = Synth.generate p in
  (d, Engine.create (Synth.atg ()) d.Synth.db)

let pp_params ppf (p : Synth.params) =
  Fmt.pf ppf "{n=%d; levels=%d; fanout=%d; seed=%d}" p.Synth.n p.Synth.levels
    p.Synth.fanout p.Synth.seed

let params_print p = Fmt.str "%a" pp_params p

(* ---- random XPath over the synthetic view's labels ---- *)

module Ast = Rxv_xpath.Ast

let synth_path_gen ~max_key =
  let open QCheck2.Gen in
  let cid_filter = map (fun k -> Ast.Eq (Ast.Label "cid", string_of_int k)) (int_range 0 max_key) in
  let structural =
    oneofl
      [
        Ast.Exists (Ast.Seq (Ast.Label "sub", Ast.Label "c"));
        Ast.Not (Ast.Exists (Ast.Seq (Ast.Label "sub", Ast.Label "c")));
        Ast.Label_is "c";
      ]
  in
  let filter =
    frequency
      [
        (3, cid_filter);
        (1, structural);
        (1, map2 (fun a b -> Ast.And (a, b)) cid_filter structural);
        (1, map2 (fun a b -> Ast.Or (a, b)) cid_filter cid_filter);
      ]
  in
  let step =
    frequency
      [
        (3, return (Ast.Label "c"));
        (2, return (Ast.Label "sub"));
        (1, return Ast.Wildcard);
        (2, return Ast.Desc_or_self);
      ]
  in
  let filtered_step =
    let* s = step in
    let* f = opt filter in
    return (match f with Some q -> Ast.Where (s, q) | None -> s)
  in
  let* len = int_range 1 5 in
  let* steps = list_size (return len) filtered_step in
  match steps with
  | [] -> return Ast.Self
  | s :: rest ->
      return (List.fold_left (fun acc st -> Ast.Seq (acc, st)) s rest)

(* ---- XPath results ---- *)

(* result equality up to list order: selected/types/edges/side-effect
   sets are sets; only zero_move_match is positional *)
let norm (r : Rxv_core.Dag_eval.result) =
  let open Rxv_core.Dag_eval in
  ( List.sort compare r.selected,
    List.sort compare r.selected_types,
    List.sort compare r.arrival_edges,
    List.sort compare r.side_effects,
    List.sort compare r.side_effects_delete,
    r.zero_move_match )

(* the reference evaluator on the engine's live structures *)
let oracle_eval (e : Engine.t) path =
  Dag_eval_oracle.eval e.Engine.store e.Engine.topo e.Engine.reach path

(* [long_factor] multiplies [count] when QCHECK_LONG=1 is set *)
let qtest ?(count = 100) ?long_factor name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?long_factor ~print gen prop)

(* ---- scratch directories ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let temp_dirs = ref 0

(* [with_temp_dir tag f] runs [f] on a fresh, empty directory under the
   system temp dir and removes it afterwards *)
let with_temp_dir tag f =
  incr temp_dirs;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rxv-%s-%d-%d" tag (Unix.getpid ()) !temp_dirs)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
