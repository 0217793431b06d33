(* Algorithm delete against its scan oracle. Vdelete.translate decides
   whether a source is still referenced by searching only the edges of
   the parents the pinned impact query names; Vdelete_oracle.translate
   scans the provenance of every surviving edge of V. The two must agree
   byte for byte, rejection messages included, on random ΔV sets (single
   edges, sets of 2–5 edges, sets holding a structural edge or an edge
   not in the view), on a fresh view and after each step of random
   activity: view deletes, fresh inserts and re-links of shared
   subtrees, Base_update batches, aborted groups and checkpoint
   recovery. Run on the synthetic and the registrar views. *)

module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Relation = Rxv_relational.Relation
module Group_update = Rxv_relational.Group_update
module Store = Rxv_dag.Store
module Atg = Rxv_atg.Atg
module Ast = Rxv_xpath.Ast
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Vdelete = Rxv_core.Vdelete
module Base_update = Rxv_core.Base_update
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Registrar = Rxv_workload.Registrar
module Persist = Rxv_persist.Persist
module Rng = Rxv_sat.Rng

type act =
  | View of int  (** one view update, chosen by the seed *)
  | Relink of int  (** unlink a (preferably shared) subtree, link it again *)
  | Base of int  (** a Base_update batch of 1–3 ops *)
  | Group_abort of int  (** a group that writes, then fails validation *)
  | Recover of int  (** checkpoint, then recover the engine from disk *)

let pp_act ppf = function
  | View s -> Fmt.pf ppf "view:%d" s
  | Relink s -> Fmt.pf ppf "relink:%d" s
  | Base s -> Fmt.pf ppf "base:%d" s
  | Group_abort s -> Fmt.pf ppf "group-abort:%d" s
  | Recover s -> Fmt.pf ppf "recover:%d" s

let seed_of = function
  | View s | Relink s | Base s | Group_abort s | Recover s -> s

let acts_gen =
  QCheck2.Gen.(
    list_size (int_range 3 8)
      (frequency
         [
           (3, map (fun s -> View s) (int_range 0 9_999));
           (2, map (fun s -> Relink s) (int_range 0 9_999));
           (2, map (fun s -> Base s) (int_range 0 9_999));
           (1, map (fun s -> Group_abort s) (int_range 0 9_999));
           (1, map (fun s -> Recover s) (int_range 0 9_999));
         ]))

(* How a dataset turns seeds into updates. *)
type world = {
  atg : Atg.t;
  view : Engine.t -> Rng.t -> Xupdate.t list;
  relink : Engine.t -> Rng.t -> Xupdate.t list;
  base : Engine.t -> Rng.t -> Group_update.t;
}

(* an update that always fails validation, to force a group rollback *)
let bad_update =
  Xupdate.Insert { etype = "zzz"; attr = [||]; path = Ast.Label "c" }

let parse fmt = Fmt.kstr Parser.parse fmt
let tuples db rname = Relation.to_list (Database.relation db rname)

(* ---- ΔV sets ---- *)

let insert_at rng x l =
  let i = Rng.int rng (List.length l + 1) in
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

let delta_v_sets atg store rng =
  let stars = Atg.star_positions atg in
  let etype id = (Store.node store id).Store.etype in
  let star = ref [] and structural = ref [] in
  Store.iter_edges
    (fun u v _ ->
      if List.mem (etype u, etype v) stars then star := (u, v) :: !star
      else structural := (u, v) :: !structural)
    store;
  let star = List.sort compare !star
  and structural = List.sort compare !structural in
  if star = [] then []
  else
    let some k = List.init k (fun _ -> Rng.pick rng star) in
    let singles = List.init 3 (fun _ -> some 1)
    and sets = List.init 3 (fun _ -> some (2 + Rng.int rng 4)) in
    let with_structural =
      if structural = [] then []
      else
        [ insert_at rng (Rng.pick rng structural) (some (1 + Rng.int rng 3)) ]
    in
    (* the reverse of an edge of a DAG is never an edge *)
    let absent =
      let u, v = Rng.pick rng star in
      [ insert_at rng (v, u) (some (Rng.int rng 3)) ]
    in
    singles @ sets @ with_structural @ absent

let pp_outcome ppf = function
  | Vdelete.Translated dr -> Fmt.pf ppf "translated [%a]" Group_update.pp dr
  | Vdelete.Rejected m -> Fmt.pf ppf "rejected %S" m

let agree atg (e : Engine.t) rng what =
  List.iter
    (fun delta_v ->
      let got = Vdelete.translate atg e.Engine.db e.Engine.store ~delta_v
      and want = Vdelete_oracle.translate atg e.Engine.store ~delta_v in
      if got <> want then
        QCheck2.Test.fail_reportf "%s, ΔV %a: %a, but the scan gives %a" what
          Fmt.(Dump.list (Dump.pair int int))
          delta_v pp_outcome got pp_outcome want)
    (delta_v_sets atg e.Engine.store rng)

(* ---- activity ---- *)

let recover atg (e : Engine.t) =
  Helpers.with_temp_dir "vdelete" (fun dir ->
      let p = Persist.open_dir dir in
      ignore (Persist.checkpoint p e);
      Persist.close p;
      let p = Persist.open_dir dir in
      let r =
        Persist.recover p atg ~init:(fun () -> invalid_arg "no checkpoint")
      in
      Persist.close p;
      match r with
      | Ok (e', _) -> e'
      | Error m -> QCheck2.Test.fail_reportf "recovery failed: %s" m)

(* one act; returns the engine to go on with *)
let step w e = function
  | View s ->
      ignore (Engine.apply_group e (w.view e (Rng.create s)));
      e
  | Relink s ->
      ignore (Engine.apply_group e (w.relink e (Rng.create s)));
      e
  | Base s ->
      (* a batch that violates a key is refused before it changes
         anything *)
      (try ignore (Base_update.apply e (w.base e (Rng.create s)))
       with Failure _ -> ());
      e
  | Group_abort s -> (
      match Engine.apply_group e (w.view e (Rng.create s) @ [ bad_update ]) with
      | Ok _ -> QCheck2.Test.fail_reportf "invalid group accepted"
      | Error _ -> e)
  | Recover _ -> recover w.atg e

let run_scenario w e acts =
  agree w.atg e (Rng.create 1) "fresh view";
  ignore
    (List.fold_left
       (fun e a ->
         let e = step w e a in
         agree w.atg e
           (Rng.create (seed_of a + 1))
           (Fmt.str "after %a" pp_act a);
         e)
       e acts);
  true

(* ---- the synthetic view ---- *)

let c_key store id =
  match (Store.node store id).Store.attr.(0) with
  | Value.Int k -> k
  | _ -> invalid_arg "c_key"

let synth_world (d : Synth.dataset) =
  let cls rng =
    match Rng.int rng 3 with 0 -> Updates.W1 | 1 -> Updates.W2 | _ -> Updates.W3
  in
  let view (e : Engine.t) rng =
    let store = e.Engine.store and seed = Rng.int rng 10_000 in
    if Rng.bool rng then Updates.insertions d store (cls rng) ~count:1 ~seed ()
    else Updates.deletions store (cls rng) ~count:1 ~seed
  in
  (* unlink c(ck) from sub(pk), preferring a shared c, and link it under
     sub(pk) again or under another c with a smaller key (every edge
     goes from a smaller key to a larger one, so this stays acyclic) *)
  let relink (e : Engine.t) rng =
    let store = e.Engine.store in
    let edges =
      List.concat_map
        (fun sub ->
          List.map (fun c -> (sub, c)) (Store.children store sub))
        (Store.gen_ids store "sub")
    in
    let shared = List.filter (fun (_, c) -> Store.in_degree store c > 1) edges in
    match if shared <> [] then shared else edges with
    | [] -> []
    | cands ->
        let sub, c = Rng.pick rng cands in
        let pk = c_key store sub and ck = c_key store c in
        let lower =
          List.filter
            (fun k -> k < ck)
            (List.map (c_key store) (Store.gen_ids store "c"))
        in
        let target = if lower = [] then pk else Rng.pick rng (pk :: lower) in
        [
          Xupdate.Delete (parse "//c[cid=%d]/sub/c[cid=%d]" pk ck);
          Xupdate.Insert
            {
              etype = "c";
              attr = (Store.node store c).Store.attr;
              path = parse "//c[cid=%d]/sub" target;
            };
        ]
  in
  (* H tuples: delete one, link two view keys, or insert the reverse of
     one, which closes a cycle when both ends are in the view *)
  let base (e : Engine.t) rng =
    let db = e.Engine.db in
    let hs = tuples db "H" and keys = List.map (fun t -> t.(0)) (tuples db "C") in
    List.init (1 + Rng.int rng 3) (fun _ ->
        match (Rng.int rng 3, hs) with
        | 0, _ :: _ ->
            let t = Rng.pick rng hs in
            Some (Group_update.Delete ("H", [ t.(0); t.(1) ]))
        | 2, _ :: _ ->
            let t = Rng.pick rng hs in
            Some (Group_update.Insert ("H", [| t.(1); t.(0) |]))
        | _ ->
            let a = Rng.pick rng keys and b = Rng.pick rng keys in
            if Value.compare a b < 0 then Some (Group_update.Insert ("H", [| a; b |]))
            else None)
    |> List.filter_map Fun.id
  in
  { atg = Synth.atg (); view; relink; base }

let synth_gen = QCheck2.Gen.pair Helpers.small_dataset_gen acts_gen

let synth_print (p, acts) =
  Fmt.str "%s %a" (Helpers.params_print p) (Fmt.Dump.list pp_act) acts

let test_synth_agrees =
  Helpers.qtest ~count:30 ~long_factor:30
    "synthetic: translate ≡ edge-scan oracle after random activity" synth_gen
    synth_print (fun (p, acts) ->
      let d, e = Helpers.engine_of_params p in
      run_scenario (synth_world d) e acts)

(* ---- the registrar view ---- *)

let registrar_world =
  let cs db =
    List.filter_map
      (fun t -> if Value.equal t.(2) (Value.str "CS") then Some t.(0) else None)
      (tuples db "course")
  in
  let str = Value.to_string in
  let view (e : Engine.t) rng =
    let db = e.Engine.db in
    let prereqs = tuples db "prereq" and enrolls = tuples db "enroll" in
    let courses = cs db in
    let fresh = Printf.sprintf "%s%03d" in
    match (Rng.int rng 5, prereqs, enrolls, courses) with
    | 0, _ :: _, _, _ ->
        let t = Rng.pick rng prereqs in
        [
          Xupdate.Delete
            (parse "//course[cno=%s]/prereq/course[cno=%s]" (str t.(0))
               (str t.(1)));
        ]
    | 1, _, _ :: _, _ ->
        let t = Rng.pick rng enrolls in
        [
          Xupdate.Delete
            (parse "//course[cno=%s]/takenBy/student[ssn=%s]" (str t.(1))
               (str t.(0)));
        ]
    | 2, _, _, _ :: _ ->
        [
          Xupdate.Insert
            {
              etype = "course";
              attr = Registrar.course_attr (fresh "CS" (Rng.int rng 1000)) "New";
              path =
                parse "//course[cno=%s]/prereq" (str (Rng.pick rng courses));
            };
        ]
    | 3, _, _, _ :: _ ->
        let students = tuples db "student" in
        let attr =
          if students <> [] && Rng.bool rng then
            let t = Rng.pick rng students in
            [| t.(0); t.(1) |]
          else [| Value.str (fresh "S" (Rng.int rng 1000)); Value.str "Eve" |]
        in
        [
          Xupdate.Insert
            {
              etype = "student";
              attr;
              path =
                parse "//course[cno=%s]/takenBy" (str (Rng.pick rng courses));
            };
        ]
    | _, _, _, _ :: _ ->
        [ Xupdate.Delete (parse "course[cno=%s]" (str (Rng.pick rng courses))) ]
    | _ -> []
  in
  (* unlink a prerequisite and link the course under a random course:
     back where it was, elsewhere, or (rejected) into a cycle *)
  let relink (e : Engine.t) rng =
    let db = e.Engine.db in
    match (tuples db "prereq", cs db) with
    | (_ :: _ as prereqs), (_ :: _ as courses) -> (
        let t = Rng.pick rng prereqs in
        match Database.find_by_key db "course" [ t.(1) ] with
        | None -> []
        | Some c ->
            [
              Xupdate.Delete
                (parse "//course[cno=%s]/prereq/course[cno=%s]" (str t.(0))
                   (str t.(1)));
              Xupdate.Insert
                {
                  etype = "course";
                  attr = [| c.(0); c.(1) |];
                  path =
                    parse "//course[cno=%s]/prereq"
                      (str (Rng.pick rng (t.(0) :: courses)));
                };
            ])
    | _ -> []
  in
  let fresh_cno rng = Printf.sprintf "CS%03d" (Rng.int rng 1000) in
  let base (e : Engine.t) rng =
    let db = e.Engine.db in
    let courses = List.map (fun t -> t.(0)) (tuples db "course") in
    let students = List.map (fun t -> t.(0)) (tuples db "student") in
    List.init (1 + Rng.int rng 3) (fun _ ->
        match Rng.int rng 5 with
        | 0 -> (
            match tuples db "prereq" with
            | [] -> None
            | ps ->
                let t = Rng.pick rng ps in
                Some (Group_update.Delete ("prereq", [ t.(0); t.(1) ])))
        | 1 -> (
            match tuples db "enroll" with
            | [] -> None
            | es ->
                let t = Rng.pick rng es in
                Some (Group_update.Delete ("enroll", [ t.(0); t.(1) ])))
        | 2 ->
            let a = Rng.pick rng courses and b = Rng.pick rng courses in
            if a = b then None
            else Some (Group_update.Insert ("prereq", [| a; b |]))
        | 3 ->
            Some
              (Group_update.Insert
                 ("enroll", [| Rng.pick rng students; Rng.pick rng courses |]))
        | _ ->
            Some
              (Group_update.Insert
                 ( "course",
                   [|
                     Value.str (fresh_cno rng);
                     Value.str "Fresh";
                     Value.str (if Rng.bool rng then "CS" else "MA");
                   |] )))
    |> List.filter_map Fun.id
  in
  { atg = Registrar.atg (); view; relink; base }

let registrar_print acts = Fmt.str "%a" (Fmt.Dump.list pp_act) acts

let test_registrar_agrees =
  Helpers.qtest ~count:30 ~long_factor:30
    "registrar: translate ≡ edge-scan oracle after random activity" acts_gen
    registrar_print (fun acts ->
      run_scenario registrar_world (Registrar.engine ()) acts)

(* ---- a rule whose impact cannot be localized ---- *)

(* Every bucket lists every item: the members rule's parameter joins no
   column, so the impact query cannot name the parents an item feeds and
   every live members node is searched. Item 10 under one bucket is still
   referenced under the other, so deleting one of its edges is rejected;
   deleting both translates. Every single edge and pair of star edges
   agrees with the scan. *)
let test_unlocalizable_rule () =
  let module Schema = Rxv_relational.Schema in
  let module Spj = Rxv_relational.Spj in
  let module Dtd = Rxv_xml.Dtd in
  let int_rel name =
    Schema.relation name [ Schema.attr "id" Value.TInt ] ~key:[ "id" ]
  in
  let schema = Schema.db [ int_rel "bucket"; int_rel "item" ] in
  let dtd =
    Dtd.make ~root:"root"
      [
        ("root", Dtd.Star "b");
        ("b", Dtd.Seq [ "bid"; "members" ]);
        ("bid", Dtd.Pcdata);
        ("members", Dtd.Star "m");
        ("m", Dtd.Pcdata);
      ]
  in
  let q_root =
    Spj.make ~name:"Qroot" ~from:[ ("b", "bucket") ] ~where:[]
      ~select:[ ("id", Spj.col "b" "id") ]
  and q_members =
    Spj.make ~name:"Qmembers" ~from:[ ("i", "item") ]
      ~where:[ Spj.eq (Spj.param 0) (Spj.param 0) ]
      ~select:[ ("id", Spj.col "i" "id") ]
  in
  let atg =
    Atg.make ~name:"buckets" ~schema ~dtd
      [
        ("root", Atg.star q_root);
        ( "b",
          Atg.R_seq
            [
              ("bid", [| Atg.From_parent 0 |]);
              ("members", [| Atg.From_parent 0 |]);
            ] );
        ("bid", Atg.R_pcdata 0);
        ("members", Atg.star q_members);
        ("m", Atg.R_pcdata 0);
      ]
  in
  let db = Database.create schema in
  List.iter (fun k -> Database.insert db "bucket" [| Value.int k |]) [ 0; 1 ];
  List.iter (fun k -> Database.insert db "item" [| Value.int k |]) [ 10; 11 ];
  let e = Engine.create atg db in
  let store = e.Engine.store in
  let edges_below ids =
    List.concat_map
      (fun p -> List.map (fun c -> (p, c)) (Store.children store p))
      ids
  in
  let members = edges_below (Store.gen_ids store "members") in
  Alcotest.(check int) "two buckets of two members" 4 (List.length members);
  let star = edges_below [ Store.root store ] @ members in
  List.iter
    (fun x ->
      List.iter
        (fun delta_v ->
          let got = Vdelete.translate atg e.Engine.db store ~delta_v in
          if got <> Vdelete_oracle.translate atg store ~delta_v then
            Alcotest.failf "ΔV %a: %a differs from the scan"
              Fmt.(Dump.list (Dump.pair int int))
              delta_v pp_outcome got)
        ([ x ] :: List.map (fun y -> [ x; y ]) star))
    star;
  let m10 = Store.find_id store "m" [| Value.int 10 |] in
  let both = List.filter (fun (_, c) -> Some c = m10) members in
  Alcotest.(check int) "item 10 under both buckets" 2 (List.length both);
  Alcotest.(check bool) "one edge of item 10 is rejected" true
    (match
       Vdelete.translate atg e.Engine.db store ~delta_v:[ List.hd both ]
     with
    | Vdelete.Rejected _ -> true
    | Vdelete.Translated _ -> false);
  Alcotest.(check bool) "both edges delete the item" true
    (Vdelete.translate atg e.Engine.db store ~delta_v:both
    = Vdelete.Translated [ Group_update.Delete ("item", [ Value.int 10 ]) ])

let tests =
  [
    Alcotest.test_case "unlocalizable rule searches every parent" `Quick
      test_unlocalizable_rule;
    test_synth_agrees;
    test_registrar_agrees;
  ]
