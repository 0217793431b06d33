(** The update workloads of Section 5.

    Three classes, each characterized by its XPath shape:

    - {b W1}: descendant-or-self ("//") steps with value filters;
    - {b W2}: child ("/") steps with value filters;
    - {b W3}: child steps with both structural and value filters.

    Deletions remove an existing c child from a sub hierarchy; insertions
    add a c subtree (an existing shared subtree from a deeper band — never
    an ancestor, so acyclicity is preserved — or a fresh key) under
    selected sub elements. Targets are sampled from the *actual* store so
    every operation hits real data, as the paper's random workloads do. *)

module Store = Rxv_dag.Store
module Value = Rxv_relational.Value
module Ast = Rxv_xpath.Ast
module Xupdate = Rxv_core.Xupdate
module Rng = Rxv_sat.Rng

type cls = W1 | W2 | W3

let cls_name = function W1 -> "W1" | W2 -> "W2" | W3 -> "W3"

let key_of_attr (attr : Value.t array) =
  match attr.(0) with Value.Int k -> k | _ -> invalid_arg "key_of_attr"

(* candidate (parent key, child key, parent is root) for sub→c edges *)
let edge_candidates (store : Store.t) =
  let root = Store.root store in
  let root_keys = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let n = Store.node store c in
      if n.Store.etype = "c" then
        Hashtbl.replace root_keys (key_of_attr n.Store.attr) ())
    (Store.children store root);
  let cands = ref [] in
  Store.iter_edges
    (fun u v _ ->
      let nu = Store.node store u and nv = Store.node store v in
      if nu.Store.etype = "sub" && nv.Store.etype = "c" then begin
        let pk = key_of_attr nu.Store.attr and ck = key_of_attr nv.Store.attr in
        cands := (pk, ck, Hashtbl.mem root_keys pk) :: !cands
      end)
    store;
  List.sort compare !cands

let cid_eq k = Ast.Eq (Ast.Label "cid", string_of_int k)
let has_sub_child = Ast.Exists (Ast.Seq (Ast.Label "sub", Ast.Label "c"))

(* the path from the root to c[cid=pk], per class *)
let parent_path cls pk =
  match cls with
  | W1 -> Ast.Seq (Ast.Desc_or_self, Ast.Where (Ast.Label "c", cid_eq pk))
  | W2 -> Ast.Where (Ast.Label "c", cid_eq pk)
  | W3 -> Ast.Where (Ast.Where (Ast.Label "c", cid_eq pk), has_sub_child)

let delete_path cls pk ck =
  Ast.Seq
    ( Ast.Seq (parent_path cls pk, Ast.Label "sub"),
      Ast.Where (Ast.Label "c", cid_eq ck) )

let insert_path cls pk = Ast.Seq (parent_path cls pk, Ast.Label "sub")

(* sample [count] elements of a nonempty list, with replacement *)
let sample rng count l =
  let arr = Array.of_list l in
  List.init count (fun _ -> arr.(Rng.int rng (Array.length arr)))

(** [deletions store cls ~count ~seed] builds [count] delete operations of
    class [cls] against the current view. *)
let deletions (store : Store.t) (cls : cls) ~count ~seed : Xupdate.t list =
  let rng = Rng.create seed in
  let cands = edge_candidates store in
  let cands =
    match cls with
    | W1 -> cands
    | W2 | W3 -> List.filter (fun (_, _, is_root) -> is_root) cands
  in
  if cands = [] then []
  else
    List.map
      (fun (pk, ck, _) -> Xupdate.Delete (delete_path cls pk ck))
      (sample rng count cands)

(** [insertions d store cls ~count ~seed ~fresh] builds insert operations;
    [fresh] selects between inserting brand-new keys (requiring new base
    tuples via Algorithm insert) and re-linking existing deeper subtrees
    (exercising sharing). *)
let insertions (d : Synth.dataset) (store : Store.t) (cls : cls) ~count ~seed
    ?(fresh = true) () : Xupdate.t list =
  let rng = Rng.create seed in
  let cands = edge_candidates store in
  let cands =
    match cls with
    | W1 -> cands
    | W2 | W3 -> List.filter (fun (_, _, is_root) -> is_root) cands
  in
  if cands = [] then []
  else
    List.mapi
      (fun i (pk, ck, _) ->
        let key =
          if fresh then Synth.fresh_key d ((seed * 1000) + i)
          else ck (* an existing deeper key: never an ancestor of pk *)
        in
        ignore ck;
        Xupdate.Insert
          {
            etype = "c";
            attr = Synth.c_attr key;
            path = insert_path cls pk;
          })
      (sample rng count cands)

(** [relinks d store cls ~count ~seed]: deletions and re-links of the
    same edges; both sample the same candidates with the same seed. *)
let relinks d store cls ~count ~seed =
  List.combine
    (deletions store cls ~count ~seed)
    (insertions d store cls ~count ~seed ~fresh:false ())
