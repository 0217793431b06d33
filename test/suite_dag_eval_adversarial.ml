(* The DAG evaluator against the tree oracle on *arbitrary* random DAGs —
   including shapes no ATG would publish (a node playing several step
   roles, dense sharing, diamonds) — to stress the two-pass algorithm and
   the conservative side-effect detector beyond the synthetic views.

   Fuzzing of this kind found the union-over-roles unsoundness that
   docs/ALGORITHMS.md documents. The two soundness properties run 300
   cases each by default and 30,000 under QCHECK_LONG=1:

     QCHECK_LONG=1 dune exec test/test_main.exe -- test dag_eval_adversarial *)

module Value = Rxv_relational.Value
module Tree = Rxv_xml.Tree
module Ast = Rxv_xpath.Ast
module Tree_eval = Rxv_xpath.Tree_eval
module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Dag_eval = Rxv_core.Dag_eval
module Plan = Rxv_xpath.Plan
module Rng = Rxv_sat.Rng

(* random DAG with a small label alphabet; labels repeat across levels so
   paths like //a//a have multiple decompositions. Nodes of the fourth
   label, t, are always childless and carry a text from a small set, so
   several t nodes share a text and one parent can have two of them:
   value filters over t are anchored through [text_nodes] *)
let labels = [| "a"; "b"; "c"; "t" |]
let t_texts = [| "0"; "1"; "2" |]

let new_node store rng ~key =
  let label = labels.(Rng.int rng 4) in
  let text =
    if label = "t" then Some t_texts.(Rng.int rng (Array.length t_texts))
    else if Rng.int rng 3 = 0 then Some (string_of_int (key mod 4))
    else None
  in
  Store.gen_id store label [| Value.Int key |] ?text ()

let is_text store id = (Store.node store id).Store.etype = "t"

let build_store (n, extra, seed) =
  let rng = Rng.create seed in
  let store = Store.create () in
  let ids =
    Array.init n (fun i ->
        if i = 0 then
          Store.gen_id store "root" [| Value.Int 0 |]
            ?text:(if Rng.int rng 3 = 0 then Some "0" else None)
            ()
        else new_node store rng ~key:i)
  in
  Store.set_root store ids.(0);
  for i = 1 to n - 1 do
    (* a parent below i that is not a t node; the root always is one *)
    let rec parent () =
      let j = Rng.int rng i in
      if is_text store ids.(j) then parent () else j
    in
    Store.add_edge store ids.(parent ()) ids.(i) ~provenance:None
  done;
  for _ = 1 to extra do
    let i = Rng.int rng n and j = Rng.int rng n in
    if i < j && not (is_text store ids.(i)) then
      Store.add_edge store ids.(i) ids.(j) ~provenance:None
  done;
  store

(* the t nodes whose text is s, read from the store at call time *)
let text_nodes store l s =
  if l <> "t" then None
  else
    Some
      (Store.fold_nodes
         (fun n acc ->
           if n.Store.etype = "t" && n.Store.text = Some s then
             n.Store.id :: acc
           else acc)
         store [])

let path_gen =
  let open QCheck2.Gen in
  let lbl = oneofl [ "a"; "b"; "c"; "t" ] in
  let filter =
    frequency
      [
        (2, map (fun l -> Ast.Exists (Ast.Label l)) lbl);
        (2, map2 (fun l v -> Ast.Eq (Ast.Label l, string_of_int v)) lbl (int_range 0 3));
        (* anchored: "3" is a text no t node carries *)
        ( 3,
          map
            (fun v -> Ast.Eq (Ast.Label "t", string_of_int v))
            (int_range 0 3) );
        ( 1,
          map2
            (fun v l ->
              Ast.And
                (Ast.Eq (Ast.Label "t", string_of_int v), Ast.Exists (Ast.Label l)))
            (int_range 0 3) lbl );
        (1, map (fun l -> Ast.Label_is l) lbl);
        (1, map (fun l -> Ast.Not (Ast.Exists (Ast.Label l))) lbl);
        (1, map (fun l -> Ast.Exists (Ast.Seq (Ast.Desc_or_self, Ast.Label l))) lbl);
        (* [a//b]: the row after the label is also read by the // below
           it, at children of any label *)
        ( 1,
          map2
            (fun l1 l2 ->
              Ast.Exists
                (Ast.Seq
                   (Ast.Label l1, Ast.Seq (Ast.Desc_or_self, Ast.Label l2))))
            lbl lbl );
      ]
  in
  let step =
    frequency
      [
        (3, map (fun l -> Ast.Label l) lbl);
        (1, return Ast.Wildcard);
        (2, return Ast.Desc_or_self);
      ]
  in
  let fstep =
    let* s = step in
    let* f = opt filter in
    return (match f with Some q -> Ast.Where (s, q) | None -> s)
  in
  let* len = int_range 1 4 in
  let* steps = list_size (return len) fstep in
  match steps with
  | [] -> return Ast.Self
  | s :: rest -> return (List.fold_left (fun a st -> Ast.Seq (a, st)) s rest)

let case_gen =
  QCheck2.Gen.(
    let* n = int_range 3 25 in
    let* extra = int_range 0 25 in
    let* seed = int_range 0 100_000 in
    let* p = path_gen in
    return ((n, extra, seed), p))

let print_case ((n, extra, seed), p) =
  Printf.sprintf "n=%d extra=%d seed=%d path=%s" n extra seed (Ast.to_string p)

(* occurrence blowup guard *)
let tree_small store =
  let occ = Store.occurrence_counts store in
  Hashtbl.fold (fun _ c acc -> acc + c) occ 0 <= 50_000

let with_structures store f =
  let l = Topo.of_store store in
  let m = Reach.compute store l in
  f l m

(* Dag_eval with the t lookup, so value filters over t are anchored *)
let eval store l m p =
  Dag_eval.eval_plan_src
    (Dag_eval.live_src ~text_nodes:(text_nodes store) store l m)
    (Plan.compile p)

let selected_match =
  Helpers.qtest ~count:400 "adversarial DAGs: r[[p]] matches oracle" case_gen
    print_case
    (fun (params, p) ->
      let store = build_store params in
      if not (tree_small store) then true
      else
        with_structures store (fun l m ->
            let dag = eval store l m p in
            let tree = Store.to_tree store in
            let got = List.sort_uniq compare dag.Dag_eval.selected in
            let expect = Tree_eval.selected_uids tree p in
            if got <> expect then
              QCheck2.Test.fail_reportf "dag=%s oracle=%s"
                (String.concat "," (List.map string_of_int got))
                (String.concat "," (List.map string_of_int expect))
            else true))

let arrivals_match =
  Helpers.qtest ~count:400 "adversarial DAGs: Ep(r) matches oracle" case_gen
    print_case
    (fun (params, p) ->
      let store = build_store params in
      if not (tree_small store) then true
      else
        with_structures store (fun l m ->
            let dag = eval store l m p in
            if dag.Dag_eval.zero_move_match then true
            else
              let tree = Store.to_tree store in
              let got = List.sort_uniq compare dag.Dag_eval.arrival_edges in
              let expect = Tree_eval.arrival_uid_pairs tree p in
              got = expect))

(* side-effect soundness on adversarial shapes: a clean verdict must mean
   occurrence-local deletion = DAG deletion *)
let side_effects_sound =
  Helpers.qtest ~count:300 ~long_factor:100
    "adversarial DAGs: clean verdicts are sound"
    case_gen print_case
    (fun (params, p) ->
      let store = build_store params in
      if not (tree_small store) then true
      else
        with_structures store (fun l m ->
            let dag = eval store l m p in
            if
              dag.Dag_eval.side_effects_delete <> []
              || dag.Dag_eval.selected = []
              || dag.Dag_eval.zero_move_match
            then true
            else begin
              let tree = Store.to_tree store in
              let victims = Tree_eval.arrival_edges tree p in
              let drop = Hashtbl.create 16 in
              List.iter
                (fun (parent, child) ->
                  match child.Tree_eval.occ with
                  | idx :: _ ->
                      Hashtbl.replace drop (parent.Tree_eval.occ, idx) ()
                  | [] -> ())
                victims;
              let rec rebuild occ (t : Tree.t) =
                let children =
                  List.concat
                    (List.mapi
                       (fun i c ->
                         if Hashtbl.mem drop (occ, i) then []
                         else [ rebuild (i :: occ) c ])
                       t.Tree.children)
                in
                { t with Tree.children }
              in
              let local = rebuild [] tree in
              List.iter
                (fun (u, v) -> ignore (Store.remove_edge store u v))
                dag.Dag_eval.arrival_edges;
              let global = Store.to_tree store in
              Tree.equal_canonical local global
            end))

(* insert soundness: a clean insert verdict must mean that appending a
   marker child at the selected occurrences only equals the DAG-semantics
   append (one edge per selected node) *)
let insert_side_effects_sound =
  Helpers.qtest ~count:300 ~long_factor:100
    "adversarial DAGs: clean insert verdicts sound"
    case_gen print_case
    (fun (params, p) ->
      let store = build_store params in
      if not (tree_small store) then true
      else
        with_structures store (fun l m ->
            let dag = eval store l m p in
            if dag.Dag_eval.side_effects <> [] || dag.Dag_eval.selected = []
            then true
            else begin
              let tree = Store.to_tree store in
              let occs = Hashtbl.create 16 in
              List.iter
                (fun (s : Tree_eval.selected) ->
                  Hashtbl.replace occs s.Tree_eval.occ ())
                (Tree_eval.select tree p);
              let marker = Tree.element ~uid:(-7) "marker" [] in
              let rec rebuild occpath (t : Tree.t) =
                let children =
                  List.mapi (fun i c -> rebuild (i :: occpath) c) t.Tree.children
                in
                let children =
                  if Hashtbl.mem occs occpath then children @ [ marker ]
                  else children
                in
                { t with Tree.children }
              in
              let local = rebuild [] tree in
              let mid = Store.gen_id store "marker" [| Value.Int (-7) |] () in
              List.iter
                (fun v -> Store.add_edge store v mid ~provenance:None)
                dag.Dag_eval.selected;
              let global = Store.to_tree store in
              Tree.equal_canonical local global
            end))

(* Dag_eval against the two-pass oracle on all six result fields, with
   the t lookup, on new tables. *)
let oracle_match =
  Helpers.qtest ~count:300 ~long_factor:100
    "adversarial DAGs: Dag_eval ≡ two-pass oracle" case_gen print_case
    (fun (params, p) ->
      let store = build_store params in
      with_structures store (fun l m ->
          Helpers.norm (eval store l m p)
          = Helpers.norm (Dag_eval_oracle.eval store l m p)))

(* A plan may reference one path filter after two different labels,
   though Plan.compile gives each filter a single reference; its row 0
   is then read at nodes of both. Filter 0 ("has a c child") is read
   after a in the outer path and after b inside filter 1, so the plan
   a[c and b[c]] selects a1 only if row 0 is computed at b1 too. *)
let test_shared_filter_gate () =
  let store = Store.create () in
  let node label i = Store.gen_id store label [| Value.Int i |] () in
  let root = node "root" 0 and a1 = node "a" 1 and b1 = node "b" 2 in
  Store.set_root store root;
  List.iter
    (fun (u, v) -> Store.add_edge store u v ~provenance:None)
    [ (root, a1); (a1, node "c" 3); (a1, b1); (b1, node "c" 4) ];
  let a = 0 and b = 1 and c = 2 in
  let plan =
    {
      Plan.outer =
        [|
          Plan.S_label a;
          Plan.S_filter (Plan.F_and (Plan.F_path 0, Plan.F_path 1));
        |];
      pfilters =
        [|
          { Plan.steps = [| Plan.S_label c |]; target = Plan.T_exists };
          {
            Plan.steps = [| Plan.S_label b; Plan.S_filter (Plan.F_path 0) |];
            target = Plan.T_exists;
          };
        |];
      labels = [| "a"; "b"; "c" |];
    }
  in
  with_structures store (fun l m ->
      let r =
        Dag_eval.eval_plan_src
          (Dag_eval.live_src ~text_nodes:(fun _ _ -> None) store l m)
          plan
      in
      Alcotest.(check (list int)) "a[c and b[c]]" [ a1 ] r.Dag_eval.selected)

let tests =
  [
    selected_match;
    arrivals_match;
    side_effects_sound;
    insert_side_effects_sound;
    oracle_match;
    Alcotest.test_case "a filter read after two labels" `Quick
      test_shared_filter_gate;
  ]
