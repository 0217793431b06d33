(* Compiled XPath plans and the generation-keyed result cache: canonical
   plan keys, counter semantics, transactional invalidation, LRU bounds,
   the rows a read recomputes after a base update, and the central
   equivalence property — cached evaluation, live or through a snapshot,
   must be indistinguishable from a fresh evaluation under arbitrary
   interleavings of view updates, base updates, queries, and aborted
   transactions. *)

module Ast = Rxv_xpath.Ast
module Normal = Rxv_xpath.Normal
module Plan = Rxv_xpath.Plan
module Parser = Rxv_xpath.Parser
module Store = Rxv_dag.Store
module Engine = Rxv_core.Engine
module Dag_eval = Rxv_core.Dag_eval
module Eval_cache = Rxv_core.Eval_cache
module Xupdate = Rxv_core.Xupdate
module Base_update = Rxv_core.Base_update
module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Relation = Rxv_relational.Relation
module Group_update = Rxv_relational.Group_update
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Registrar = Rxv_workload.Registrar

let check = Alcotest.(check bool)

let norm = Helpers.norm

(* the reference answer: the two-pass oracle, evaluated from scratch *)
let fresh_eval = Helpers.oracle_eval

(* ---- plan keys ---- *)

let key_of p = Plan.key (Plan.compile p)

let test_plan_key_canonical () =
  let a = Ast.Label "a" and b = Ast.Label "b" and c = Ast.Label "c" in
  check "Seq is associative under normalization" true
    (key_of (Ast.Seq (Ast.Seq (a, b), c)) = key_of (Ast.Seq (a, Ast.Seq (b, c))));
  check "adjacent // coalesce" true
    (key_of (Ast.Seq (Ast.Desc_or_self, Ast.Desc_or_self))
    = key_of Ast.Desc_or_self);
  check "adjacent filters merge" true
    (key_of (Ast.Where (Ast.Where (a, Ast.Label_is "x"), Ast.Label_is "y"))
    = key_of (Ast.Where (a, Ast.And (Ast.Label_is "x", Ast.Label_is "y"))));
  check "label order matters" false (key_of (Ast.Seq (a, b)) = key_of (Ast.Seq (b, a)));
  check "label name matters" false (key_of a = key_of b);
  check "filter literal matters" false
    (key_of (Ast.Where (a, Ast.Eq (b, "1")))
    = key_of (Ast.Where (a, Ast.Eq (b, "2"))))

let test_plan_key_iff_equivalent =
  Helpers.qtest ~count:200 "plan key equal ⟺ deep-normal equivalent"
    QCheck2.Gen.(
      pair (Helpers.synth_path_gen ~max_key:30) (Helpers.synth_path_gen ~max_key:30))
    (fun (p1, p2) -> Fmt.str "%a ~ %a" Ast.pp_path p1 Ast.pp_path p2)
    (fun (p1, p2) -> Normal.equivalent p1 p2 = (key_of p1 = key_of p2))

(* ---- counter semantics on a live engine ---- *)

let parse = Parser.parse

let test_counters () =
  let e = Registrar.engine () in
  let p = parse "//course" in
  let r1 = Engine.query e p in
  let st1 = Engine.stats e in
  Alcotest.(check int) "cold query misses" 1 st1.Engine.cache_misses;
  Alcotest.(check int) "cold query does not hit" 0 st1.Engine.cache_hits;
  let r2 = Engine.query e p in
  let st2 = Engine.stats e in
  Alcotest.(check int) "warm query hits" 1 st2.Engine.cache_hits;
  check "warm ≡ cold" true (norm r1 = norm r2);
  check "warm ≡ fresh" true (norm r2 = norm (fresh_eval e p));
  (* an equivalent spelling of the same path shares the entry *)
  let p' = parse "//course[label()=course]" in
  if Normal.equivalent p p' then
    ignore (Engine.query e p');
  (* a committed update dirties; the next query partially revalidates *)
  (match
     Engine.apply e
       (Xupdate.Insert
          {
            etype = "course";
            attr = Registrar.course_attr "CS210" "Systems";
            path = parse "course[cno=CS650]/prereq";
          })
   with
  | Ok _ -> ()
  | Error rej -> Alcotest.failf "insert rejected: %a" Engine.pp_rejection rej);
  let r3 = Engine.query e p in
  let st3 = Engine.stats e in
  Alcotest.(check int) "post-update query revalidates partially" 1
    st3.Engine.cache_partials;
  check "post-update ≡ fresh" true (norm r3 = norm (fresh_eval e p))

(* An abort is one more invalidation. A read inside the frame is served
   from the cache, repairing the entry to the frame's state; the abort
   re-dirties the frame's rows at a generation higher than any before,
   so the next read repairs them back. *)
let test_abort_redirties () =
  let e = Registrar.engine () in
  let p = parse "//prereq/course" in
  let generation () = Eval_cache.generation e.Engine.cache in
  let before = Engine.query e p in
  let g0 = generation () in
  let h = Engine.Txn.begin_ e in
  (match
     Engine.apply e
       (Xupdate.Insert
          {
            etype = "course";
            attr = Registrar.course_attr "CS999" "Doomed";
            path = parse "course[cno=CS650]/prereq";
          })
   with
  | Ok _ -> ()
  | Error rej -> Alcotest.failf "insert rejected: %a" Engine.pp_rejection rej);
  let st0 = Engine.stats e in
  let mid = Engine.query e p in
  let st_mid = Engine.stats e in
  check "mid-txn read sees the insert" true
    (List.length mid.Dag_eval.selected
    > List.length before.Dag_eval.selected);
  check "mid-txn read ≡ fresh" true (norm mid = norm (fresh_eval e p));
  Alcotest.(check int) "mid-txn read is a partial"
    (st0.Engine.cache_partials + 1) st_mid.Engine.cache_partials;
  Alcotest.(check int) "mid-txn read does not miss" st0.Engine.cache_misses
    st_mid.Engine.cache_misses;
  let g_mid = generation () in
  Engine.Txn.abort e h;
  check "the abort moves the generation past every earlier one" true
    (generation () > g_mid && g_mid > g0);
  let after = Engine.query e p in
  let st1 = Engine.stats e in
  Alcotest.(check int) "post-abort read is a partial"
    (st_mid.Engine.cache_partials + 1) st1.Engine.cache_partials;
  check "post-abort ≡ pre-txn" true (norm before = norm after);
  check "post-abort ≡ fresh" true (norm after = norm (fresh_eval e p))

let test_lru_eviction () =
  let e = Registrar.engine () in
  let c = Eval_cache.create ~cap:2 () in
  let q path =
    Eval_cache.query c (Engine.live_src e) path
  in
  let p1 = parse "//course" and p2 = parse "//student" and p3 = parse "//prereq" in
  List.iter
    (fun p -> check "cached ≡ fresh" true (norm (q p) = norm (fresh_eval e p)))
    [ p1; p2; p3 ];
  let cnt = Eval_cache.counters c in
  Alcotest.(check int) "third plan evicts the LRU entry" 1
    cnt.Eval_cache.evictions;
  (* p2/p3 survive; p1 was the victim *)
  ignore (q p2);
  ignore (q p3);
  let cnt2 = Eval_cache.counters c in
  Alcotest.(check int) "survivors hit" 2 cnt2.Eval_cache.hits;
  ignore (q p1);
  let cnt3 = Eval_cache.counters c in
  Alcotest.(check int) "victim misses again" 4 cnt3.Eval_cache.misses

(* ---- rows recomputed after a base update ---- *)

let h_tuples db =
  List.sort compare (Relation.to_list (Database.relation db "H"))

let h_key (t : Rxv_relational.Tuple.t) = [ t.(0); t.(1) ]

(* A small write must leave a read a few cells to compute again, not
   all of L: the writer dirties only the nodes whose children changed,
   with their ancestors, and a read forgets only the dirty slots' cells.
   Two writes: one leaf-H delete through Base_update, as replica_apply's
   batches make them, and a view-update re-link of a shared non-leaf c,
   a delete plus a re-insert in one Engine.apply_group, as fig11_mix
   makes them. A cell depends only on its node's descendants, so the
   re-linked subtree keeps its cells. Checked on the live read path and
   on the snapshot read path after each write, with probes that have no
   anchor: their filters are asked at every c, so a read computes cells
   at each dirty c, and at every c when the writer dirties everything. *)
let test_small_writes_recompute_few_rows () =
  let d = Synth.generate (Synth.default_params ~seed:3 1000) in
  let e = Engine.create (Synth.atg ()) d.Synth.db in
  let store = e.Engine.store in
  let live_path = parse "//c[not(sub/c)]"
  and snap_path = parse "//c[sub/c]/sub/c" in
  ignore (Engine.query e live_path);
  ignore (Engine.Snapshot.query (Engine.Snapshot.capture e) snap_path);
  let recomputed read =
    let count () =
      (Eval_cache.counters e.Engine.cache).Eval_cache.recomputed_cells
    in
    let before = count () in
    let r = read () in
    (r, count () - before)
  in
  let check_read name path read =
    let rows = Store.n_nodes store in
    let r, n = recomputed read in
    check (name ^ " ≡ fresh") true (norm r = norm (fresh_eval e path));
    if n = 0 || 20 * n >= rows then
      Alcotest.failf "%s computed %d cells for %d nodes (want 1 to <5%%)" name
        n rows
  in
  let check_reads write =
    check_read (write ^ ", live read") live_path (fun () ->
        Engine.query e live_path);
    let snap = Engine.Snapshot.capture e in
    check_read (write ^ ", snapshot read") snap_path (fun () ->
        Engine.Snapshot.query snap snap_path)
  in
  (* an H tuple whose child key has none of its own: deleting it unlinks
     one leaf c *)
  let h = Database.relation e.Engine.db "H" in
  let leaf =
    match
      List.find_opt
        (fun t -> Relation.select_eq h 0 t.(1) = [])
        (h_tuples e.Engine.db)
    with
    | Some t -> t
    | None -> Alcotest.fail "no leaf H tuple"
  in
  (match Base_update.apply e [ Group_update.Delete ("H", h_key leaf) ] with
  | Ok r ->
      check "the delete repaired a parent" true
        (r.Base_update.affected_parents > 0)
  | Error m -> Alcotest.failf "base update failed: %s" m);
  check_reads "leaf-H delete";
  (* the shared non-leaf c with the largest subtree, unlinked from one
     parent and linked back *)
  let subtree_size id =
    let seen = Hashtbl.create 64 in
    let rec go id =
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        List.iter go (Store.children store id)
      end
    in
    go id;
    Hashtbl.length seen
  in
  let c =
    List.fold_left
      (fun best c ->
        if Store.in_degree store c > 1 && subtree_size c > 3 then
          match best with
          | Some b when subtree_size b >= subtree_size c -> best
          | _ -> Some c
        else best)
      None (Store.gen_ids store "c")
  in
  let c =
    match c with Some c -> c | None -> Alcotest.fail "no shared non-leaf c"
  in
  let key id = Value.to_string (Store.node store id).Store.attr.(0) in
  let pk = key (List.hd (Store.parents store c)) and ck = key c in
  (match
     Engine.apply_group e
       [
         Xupdate.Delete (parse (Printf.sprintf "//c[cid=%s]/sub/c[cid=%s]" pk ck));
         Xupdate.Insert
           {
             etype = "c";
             attr = (Store.node store c).Store.attr;
             path = parse (Printf.sprintf "//c[cid=%s]/sub" pk);
           };
       ]
   with
  | Ok _ -> ()
  | Error (i, rej) ->
      Alcotest.failf "re-link rejected at %d: %a" i Engine.pp_rejection rej);
  check "the re-linked c kept its node" true (Store.mem_node store c);
  check_reads "re-link"

(* ---- string values after an update ---- *)

(* the XPath string value: the node's own text, then its children's, in
   document order *)
let rec string_value store id =
  Option.value ~default:"" (Store.node store id).Store.text
  ^ String.concat "" (List.map (string_value store) (Store.children store id))

(* A text comparison reads the length of the node's whole subtree text,
   so an update below a node changes what the comparison sees there, on
   every ancestor of the touched nodes. A twin engine applies the update
   first to learn the course's new string value; the cached read after
   the update must select that course, as a fresh one does. *)
let test_text_eq_sees_new_string_values () =
  let view_insert e =
    match
      Engine.apply e
        (Xupdate.Insert
           {
             etype = "course";
             attr = Registrar.course_attr "CS210" "Systems";
             path = parse "course[cno=CS650]/prereq";
           })
    with
    | Ok _ -> ()
    | Error rej -> Alcotest.failf "insert rejected: %a" Engine.pp_rejection rej
  in
  let base_insert e =
    match
      Base_update.apply e
        [
          Group_update.Insert
            ("prereq", [| Value.str "CS240"; Value.str "CS120" |]);
        ]
    with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "base update failed: %s" m
  in
  List.iter
    (fun (name, cno, update) ->
      let twin = Registrar.engine () in
      update twin;
      let course =
        match
          (fresh_eval twin (parse ("course[cno=" ^ cno ^ "]"))).Dag_eval.selected
        with
        | [ id ] -> id
        | _ -> Alcotest.failf "%s: no single course %s" name cno
      in
      let p =
        Ast.Seq
          ( Ast.Desc_or_self,
            Ast.Where
              ( Ast.Label "course",
                Ast.Eq (Ast.Self, string_value twin.Engine.store course) ) )
      in
      let e = Registrar.engine () in
      ignore (Engine.query e p);
      update e;
      check (name ^ ": cached ≡ fresh") true
        (norm (Engine.query e p) = norm (fresh_eval e p));
      check (name ^ ": the course is selected") true
        ((Engine.query e p).Dag_eval.selected <> []))
    [
      ("view insert", "CS650", view_insert);
      ("base insert", "CS240", base_insert);
    ]

(* ---- the equivalence property ---- *)

type act =
  | Ins of int
  | Relink of int
  | Del of int
  | Base of int
  | Query of Ast.path
  | Snap of Ast.path
  | Txn_abort of int
  | Nested_abort of int
  | Group_abort of int

let pp_act ppf = function
  | Ins s -> Fmt.pf ppf "ins:%d" s
  | Relink s -> Fmt.pf ppf "relink:%d" s
  | Del s -> Fmt.pf ppf "del:%d" s
  | Base s -> Fmt.pf ppf "base:%d" s
  | Query p -> Fmt.pf ppf "q(%a)" Ast.pp_path p
  | Snap p -> Fmt.pf ppf "snap(%a)" Ast.pp_path p
  | Txn_abort s -> Fmt.pf ppf "txn-abort:%d" s
  | Nested_abort s -> Fmt.pf ppf "nested-abort:%d" s
  | Group_abort s -> Fmt.pf ppf "group-abort:%d" s

let act_gen ~max_key =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun s -> Ins s) (int_range 0 9_999));
        (1, map (fun s -> Relink s) (int_range 0 9_999));
        (2, map (fun s -> Del s) (int_range 0 9_999));
        (2, map (fun s -> Base s) (int_range 0 9_999));
        (3, map (fun p -> Query p) (Helpers.synth_path_gen ~max_key));
        (2, map (fun p -> Snap p) (Helpers.synth_path_gen ~max_key));
        (1, map (fun s -> Txn_abort s) (int_range 0 9_999));
        (1, map (fun s -> Nested_abort s) (int_range 0 9_999));
        (1, map (fun s -> Group_abort s) (int_range 0 9_999));
      ])

let scenario_gen =
  QCheck2.Gen.(
    let* p = Helpers.small_dataset_gen in
    let* acts = list_size (int_range 6 16) (act_gen ~max_key:(p.Synth.n + 5)) in
    return (p, acts))

let scenario_print (p, acts) =
  Fmt.str "%s %a" (Helpers.params_print p) (Fmt.Dump.list pp_act) acts

let cls_of s =
  match s mod 3 with 0 -> Updates.W1 | 1 -> Updates.W2 | _ -> Updates.W3

(* a fresh-key insertion, or for odd [s] the deletion of an edge and
   its re-link, drawn together: a re-link of an edge still in the view
   would change nothing *)
let insertions d (e : Engine.t) s =
  let store = e.Engine.store in
  if s mod 2 = 0 then Updates.insertions d store (cls_of s) ~count:1 ~seed:s ()
  else
    List.concat_map
      (fun (del, ins) -> [ del; ins ])
      (Updates.relinks d store (cls_of s) ~count:1 ~seed:s)

(* link an existing c under a sub that lacks it, its subtree shared and
   no node new: only the sub's row and its ancestors' change. Keys grow
   along the generated edges, so a sub with a smaller key is rarely below
   the c; when it is, Xinsert rejects the cycle. *)
let one_relink (e : Engine.t) s =
  let store = e.Engine.store in
  let key id = Value.to_string (Store.node store id).Store.attr.(0) in
  let subs = Store.gen_ids store "sub" in
  let pairs =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun sub ->
            if
              Value.compare (Store.node store sub).Store.attr.(0)
                (Store.node store c).Store.attr.(0)
              < 0
              && not (Store.mem_edge store sub c)
            then Some (sub, c)
            else None)
          subs)
      (Store.gen_ids store "c")
  in
  match pairs with
  | [] -> None
  | _ ->
      let sub, c = List.nth pairs (s mod List.length pairs) in
      Some
        (Xupdate.Insert
           {
             etype = "c";
             attr = (Store.node store c).Store.attr;
             path = parse (Printf.sprintf "//c[cid=%s]/sub" (key sub));
           })

let one_deletion (e : Engine.t) s =
  match Updates.deletions e.Engine.store (cls_of s) ~count:1 ~seed:s with
  | u :: _ -> Some u
  | [] -> None

(* an update that always fails validation, to force a group rollback *)
let bad_update =
  Xupdate.Insert { etype = "zzz"; attr = [||]; path = Ast.Label "c" }

let check_equiv (e : Engine.t) path =
  let cached = Engine.query e path in
  let reference = fresh_eval e path in
  norm cached = norm reference
  && norm (Engine.query e path) = norm reference
  && norm
       (Dag_eval.eval_plan_src
          (Dag_eval.live_src
             ~text_nodes:(fun _ _ -> None)
             e.Engine.store e.Engine.topo e.Engine.reach)
          (Plan.compile path))
     = norm reference
  && norm (Dag_eval.eval_plan_src (Engine.live_src e) (Plan.compile path))
     = norm reference

(* one H tuple through Base_update.apply, chosen by [s] from the current
   H relation: delete one, re-insert one deleted earlier ([gone]), or
   insert the reverse of one. The reverse closes a cycle whenever both
   keys are in the view, so the update takes the Would_cycle exit. *)
let base_update (e : Engine.t) gone s =
  let db = e.Engine.db in
  let absent t = not (Database.mem_key db "H" (h_key t)) in
  let pick l = List.nth l (s mod List.length l) in
  let op =
    match (s mod 4, h_tuples db, List.filter absent !gone) with
    | (0 | 1), (_ :: _ as hs), _ ->
        let t = pick hs in
        gone := t :: !gone;
        Some (Group_update.Delete ("H", h_key t))
    | 2, _, (_ :: _ as back) -> Some (Group_update.Insert ("H", pick back))
    | 3, (_ :: _ as hs), _ ->
        let t = pick hs in
        let rev = [| t.(1); t.(0) |] in
        if absent rev then Some (Group_update.Insert ("H", rev)) else None
    | _ -> None
  in
  Option.iter (fun op -> ignore (Base_update.apply e [ op ])) op

let probes =
  [
    Ast.Seq (Ast.Desc_or_self, Ast.Label "c");
    Ast.Seq (Ast.Label "c", Ast.Seq (Ast.Label "sub", Ast.Label "c"));
    Ast.Seq
      ( Ast.Desc_or_self,
        Ast.Where (Ast.Label "c", Ast.Exists (Ast.Label "sub")) );
    (* a text comparison reads the node itself, so a slot map entry left
       on a deleted node fails loudly *)
    Ast.Seq
      ( Ast.Desc_or_self,
        Ast.Where (Ast.Label "c", Ast.Eq (Ast.Label "cid", "1")) );
    (* the leaves: a c turns into one when its sub loses its last child,
       which only a dirty row for that sub can show *)
    Ast.Seq
      ( Ast.Desc_or_self,
        Ast.Where
          ( Ast.Label "c",
            Ast.Not (Ast.Exists (Ast.Seq (Ast.Label "sub", Ast.Label "c"))) ) );
  ]

(* Every update of a group evaluates its path through the cache: the
   first before the frame mutates anything, the later ones over the rows
   the earlier ones dirtied. This is what keeps server-side write
   latency (and the failover MTTR probe) off the cold O(|p|·|V|) DP. A
   path first read after the frame wrote is evaluated without filling an
   entry, and an aborted group leaves its rows dirty. *)
let test_group_first_op_cache () =
  let e = Registrar.engine () in
  let p1 = parse "course[cno=CS650]/prereq" in
  let p2 = parse "course[cno=CS240]/prereq" in
  let p3 = parse "course[cno=CS120]/prereq" in
  ignore (Engine.query e p1);
  ignore (Engine.query e p2);
  let ins cno path =
    Xupdate.Insert
      { etype = "course"; attr = Registrar.course_attr cno "New"; path }
  in
  let group us =
    match Engine.apply_group e us with
    | Ok _ -> ()
    | Error (i, rej) ->
        Alcotest.failf "group rejected at %d: %a" i Engine.pp_rejection rej
  in
  let rejected us =
    match Engine.apply_group e us with
    | Ok _ -> Alcotest.fail "invalid group accepted"
    | Error _ -> ()
  in
  let st0 = Engine.stats e in
  group [ ins "CS901" p1; ins "CS902" p2 ];
  let st1 = Engine.stats e in
  Alcotest.(check int) "first op served from the warm cache"
    (st0.Engine.cache_hits + 1) st1.Engine.cache_hits;
  Alcotest.(check int) "second op repairs its entry inside the group"
    (st0.Engine.cache_partials + 1) st1.Engine.cache_partials;
  Alcotest.(check int) "neither op misses" st0.Engine.cache_misses
    st1.Engine.cache_misses;
  (* the previous group left p1's entry one-mutation-stale: the next
     group's first op repairs just the dirty rows instead of refilling *)
  let st2 = Engine.stats e in
  group [ ins "CS903" p1 ];
  let st3 = Engine.stats e in
  Alcotest.(check int) "consecutive write revalidates partially"
    (st2.Engine.cache_partials + 1) st3.Engine.cache_partials;
  List.iter
    (fun p -> check "post-group cached ≡ fresh" true (check_equiv e p))
    [ p1; p2; parse "//course" ];
  (* a path first read after the group's first write misses and leaves
     no entry, so the same read after the group misses again *)
  let st4 = Engine.stats e in
  group [ ins "CS904" p1; ins "CS905" p3 ];
  let st5 = Engine.stats e in
  Alcotest.(check int) "a cold path inside a written group misses"
    (st4.Engine.cache_misses + 1) st5.Engine.cache_misses;
  ignore (Engine.query e p3);
  let st6 = Engine.stats e in
  Alcotest.(check int) "and leaves no entry behind"
    (st5.Engine.cache_misses + 1) st6.Engine.cache_misses;
  (* a group rejected at validation before it writes leaves the entry
     as it was *)
  let before = Engine.query e p1 in
  let st7 = Engine.stats e in
  rejected [ bad_update; ins "CS906" p1 ];
  ignore (Engine.query e p1);
  let st8 = Engine.stats e in
  Alcotest.(check int) "read after an unwritten abort is a hit"
    (st7.Engine.cache_hits + 1) st8.Engine.cache_hits;
  (* a group that wrote before its rejection leaves the read a partial
     over the frame's rows, equal to the pre-group result *)
  rejected [ ins "CS907" p1; bad_update ];
  let after = Engine.query e p1 in
  let st9 = Engine.stats e in
  check "post-abort ≡ pre-group" true (norm before = norm after);
  check "post-abort ≡ fresh" true (norm after = norm (fresh_eval e p1));
  Alcotest.(check int) "read after a written abort is a partial"
    (st8.Engine.cache_partials + 1) st9.Engine.cache_partials

let run_scenario (p, acts) =
  let d, e = Helpers.engine_of_params p in
  let gone = ref [] in
  (* the generation never goes back, an abort included *)
  let last_gen = ref (Eval_cache.generation e.Engine.cache) in
  let watch_generation what =
    let g = Eval_cache.generation e.Engine.cache in
    if g < !last_gen then
      QCheck2.Test.fail_reportf "generation went back from %d to %d %s"
        !last_gen g what;
    last_gen := g
  in
  let check_paths what paths =
    List.iter
      (fun path ->
        if not (check_equiv e path) then
          QCheck2.Test.fail_reportf "%scached ≠ fresh for %a" what
            Ast.pp_path path)
      paths
  in
  let step = function
    | Ins s -> List.iter (fun u -> ignore (Engine.apply e u)) (insertions d e s)
    | Relink s -> (
        match one_relink e s with
        | Some u -> ignore (Engine.apply e u)
        | None -> ())
    | Del s -> (
        match one_deletion e s with
        | Some u -> ignore (Engine.apply e u)
        | None -> ())
    | Base s -> base_update e gone s
    | Query path ->
        (* the probes stay cached, so each later update leaves them
           dirty rows to revalidate *)
        check_paths "" (path :: probes)
    | Snap path ->
        (* a snapshot read at the current generation revalidates the
           shared entries through the frozen views and their slot map,
           which must match the live one slot for slot, recycled slots
           included *)
        let store = e.Engine.store in
        let view = Store.freeze store in
        for slot = 0 to Store.slot_capacity store - 1 do
          if Store.view_id_of_slot view slot <> Store.id_of_slot store slot
          then QCheck2.Test.fail_reportf "frozen slot map wrong at %d" slot
        done;
        let snap = Engine.Snapshot.capture e in
        List.iter
          (fun path ->
            if
              norm (Engine.Snapshot.query snap path)
              <> norm (fresh_eval e path)
            then
              QCheck2.Test.fail_reportf "snapshot ≠ fresh for %a" Ast.pp_path
                path)
          (path :: probes)
    | Txn_abort s ->
        let h = Engine.Txn.begin_ e in
        List.iter (fun u -> ignore (Engine.apply e u)) (insertions d e s);
        (match one_deletion e (s + 1) with
        | Some u -> ignore (Engine.apply e u)
        | None -> ());
        (* mid-txn reads repair the cached entries to the frame's state;
           the abort must dirty those rows again *)
        check_paths "mid-txn " probes;
        watch_generation "inside the txn";
        Engine.Txn.abort e h
    | Nested_abort s ->
        (* each group commits into the open frame, which must keep the
           group's rows for its own abort *)
        let h = Engine.Txn.begin_ e in
        List.iter
          (fun u -> ignore (Engine.apply_group e [ u ]))
          (insertions d e s);
        Option.iter
          (fun u -> ignore (Engine.apply_group e [ u ]))
          (one_deletion e (s + 1));
        check_paths "mid-txn, after committed groups, " probes;
        watch_generation "inside the txn";
        Engine.Txn.abort e h
    | Group_abort s -> (
        let us =
          insertions d e s @ [ bad_update ]
        in
        match Engine.apply_group e us with
        | Ok _ -> QCheck2.Test.fail_reportf "invalid group accepted"
        | Error _ -> ())
  in
  List.iter
    (fun a ->
      step a;
      watch_generation (Fmt.str "after %a" pp_act a))
    acts;
  List.for_all (check_equiv e) probes

let test_equivalence =
  Helpers.qtest ~count:60 ~long_factor:50
    "cached ≡ fresh across update/base-update/snapshot/abort interleavings"
    scenario_gen scenario_print run_scenario

let tests =
  [
    Alcotest.test_case "plan key canonicalization" `Quick
      test_plan_key_canonical;
    test_plan_key_iff_equivalent;
    Alcotest.test_case "hit/miss/partial counters" `Quick test_counters;
    Alcotest.test_case "abort re-dirties frame rows, generation grows" `Quick
      test_abort_redirties;
    Alcotest.test_case "group first op served from warm cache" `Quick
      test_group_first_op_cache;
    Alcotest.test_case "LRU eviction at capacity" `Quick test_lru_eviction;
    Alcotest.test_case "leaf-H delete: a read recomputes <5% of rows, re-link too"
      `Quick
      test_small_writes_recompute_few_rows;
    Alcotest.test_case "text comparisons see new string values" `Quick
      test_text_eq_sees_new_string_values;
    test_equivalence;
  ]
