(** XML view updates and their translation to group updates over the
    relational view representation: Algorithms Xinsert (Fig. 5) and
    Xdelete (Fig. 6).

    A single XML update maps to a *group* of edge-relation updates ΔV.
    Because nodes are identified by (type, $A), the revised side-effect
    semantics of Section 2.1 comes for free: all occurrences of a shared
    subtree are one node, so inserting under / deleting from every
    like-valued element costs nothing extra — the observation the paper
    makes about these algorithms. *)

module Store = Rxv_dag.Store
module Tuple = Rxv_relational.Tuple
module Ast = Rxv_xpath.Ast
module Atg = Rxv_atg.Atg
module Publish = Rxv_atg.Publish
module Dtd = Rxv_xml.Dtd

type t =
  | Insert of { etype : string; attr : Tuple.t; path : Ast.path }
      (** insert (A, t) into p *)
  | Delete of Ast.path  (** delete p *)

let path_of = function Insert { path; _ } -> path | Delete path -> path

let pp ppf = function
  | Insert { etype; attr; path } ->
      Fmt.pf ppf "insert (%s, %a) into %a" etype Tuple.pp attr Ast.pp_path
        path
  | Delete path -> Fmt.pf ppf "delete %a" Ast.pp_path path

exception Update_rejected of string

let reject fmt = Fmt.kstr (fun s -> raise (Update_rejected s)) fmt

(** {2 Xinsert} *)

type insert_translation = {
  subtree_root : int;  (** rA *)
  subtree_nodes : int list;  (** NA *)
  new_nodes : int list;
  connect_edges : (int * int) list;
      (** ΔV: (u_i, rA) for each selected u_i — the edges whose base
          support Algorithm insert must establish. Inner edges of ST(A,t)
          are supported by existing base data (the publisher evaluated the
          rules against I) and are already in the store. *)
}

(** Algorithm Xinsert: expand ST(A, t) inside the store (Fig. 5, lines
    2-5) and compute the connection edges towards r[[p]] (lines 6-7).
    [selected] must be the evaluator's r[[p]].

    Rejects (rolling the expansion back) when the insertion would create a
    reference cycle — ST(A, t) containing an ancestor-or-self of a target
    would denote an infinite tree. *)
let xinsert (atg : Atg.t) db (store : Store.t)
    ~(is_ancestor_or_self : int -> int -> bool) ~(etype : string)
    ~(attr : Tuple.t) ~(selected : int list) : insert_translation =
  (* instance-level recheck of the star-position condition *)
  List.iter
    (fun u ->
      let ut = (Store.node store u).Store.etype in
      match Dtd.production atg.Atg.dtd ut with
      | Dtd.Star b when String.equal b etype -> ()
      | _ ->
          reject "cannot insert a %s element under a %s element" etype ut)
    selected;
  let subtree_root, subtree_nodes, new_nodes =
    match Publish.publish_subtree atg db store etype attr with
    | r -> r
    | exception Publish.Cyclic_view msg ->
        reject "insertion would create a cycle (%s)" msg
  in
  let cyclic =
    List.exists
      (fun s -> List.exists (fun u -> is_ancestor_or_self s u) selected)
      subtree_nodes
  in
  if cyclic then begin
    Publish.rollback_subtree store ~new_nodes;
    reject "insertion would create a cycle (ST(%s, t) reaches a target)"
      etype
  end;
  let connect_edges =
    List.filter
      (fun (u, _) -> not (Store.mem_edge store u subtree_root))
      (List.map (fun u -> (u, subtree_root)) selected)
  in
  { subtree_root; subtree_nodes; new_nodes; connect_edges }

(** {2 Xdelete} *)

(** Algorithm Xdelete: ΔV is exactly Ep(r) (Fig. 6). Instance-level
    validation: every removed edge must sit at a star position, and the
    path must not select via a zero-length match (nothing to unlink). *)
let xdelete (atg : Atg.t) (store : Store.t)
    ~(arrival_edges : (int * int) list) ~(selected : int list)
    ~(zero_move_match : bool) : (int * int) list =
  if selected <> [] && zero_move_match then
    reject "delete selects the root of the view (no parent edge to remove)";
  List.iter
    (fun (u, v) ->
      let ut = (Store.node store u).Store.etype
      and vt = (Store.node store v).Store.etype in
      match Dtd.production atg.Atg.dtd ut with
      | Dtd.Star b when String.equal b vt -> ()
      | _ -> reject "cannot delete a %s element from under a %s element" vt ut)
    arrival_edges;
  arrival_edges
