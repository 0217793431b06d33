(* Randomized SPJ evaluation tests: the hash-join evaluator against the
   naive cross-product reference, and compiled plans against one-shot
   runs, over random small schemas, instances and queries. *)

module Value = Rxv_relational.Value
module Schema = Rxv_relational.Schema
module Tuple = Rxv_relational.Tuple
module Database = Rxv_relational.Database
module Spj = Rxv_relational.Spj
module Eval = Rxv_relational.Eval
module Rng = Rxv_sat.Rng

(* a small universe of three relations with int columns *)
let schema =
  Schema.db
    [
      Schema.relation "r1"
        [ Schema.attr "a" Value.TInt; Schema.attr "b" Value.TInt ]
        ~key:[ "a" ];
      Schema.relation "r2"
        [
          Schema.attr "c" Value.TInt;
          Schema.attr "d" Value.TInt;
          Schema.attr "e" Value.TInt;
        ]
        ~key:[ "c" ];
      Schema.relation "r3"
        [ Schema.attr "f" Value.TInt; Schema.attr "g" Value.TInt ]
        ~key:[ "f"; "g" ];
    ]

let cols_of = function
  | "r1" -> [ "a"; "b" ]
  | "r2" -> [ "c"; "d"; "e" ]
  | _ -> [ "f"; "g" ]

let random_db rng =
  let db = Database.create schema in
  let v () = Value.Int (Rng.int rng 6) in
  for k = 0 to 5 + Rng.int rng 10 do
    (try Database.insert db "r1" [| Value.Int k; v () |]
     with _ -> ());
    try Database.insert db "r2" [| Value.Int k; v (); v () |] with _ -> ()
  done;
  for _ = 0 to 8 + Rng.int rng 10 do
    try Database.insert db "r3" [| v (); v () |] with _ -> ()
  done;
  db

(* a random query over 1-3 aliased occurrences with random equalities *)
let random_query rng ~with_params =
  let nfrom = 1 + Rng.int rng 3 in
  let from =
    List.init nfrom (fun i ->
        let rname = List.nth [ "r1"; "r2"; "r3" ] (Rng.int rng 3) in
        (Printf.sprintf "t%d" i, rname))
  in
  let random_col () =
    let alias, rname = List.nth from (Rng.int rng nfrom) in
    let cols = cols_of rname in
    Spj.col alias (List.nth cols (Rng.int rng (List.length cols)))
  in
  let npreds = Rng.int rng 4 in
  let where =
    List.init npreds (fun _ ->
        let a = random_col () in
        let b =
          match Rng.int rng (if with_params then 3 else 2) with
          | 0 -> random_col ()
          | 1 -> Spj.const (Value.Int (Rng.int rng 6))
          | _ -> Spj.param 0
        in
        Spj.eq a b)
  in
  let nsel = 1 + Rng.int rng 3 in
  let select =
    List.init nsel (fun i -> (Printf.sprintf "o%d" i, random_col ()))
  in
  Spj.make ~name:"rand" ~from ~where ~select

let eval_agrees_with_naive =
  Helpers.qtest ~count:300 "random SPJ: evaluator = naive reference"
    QCheck2.Gen.(int_range 0 100_000)
    string_of_int
    (fun seed ->
      let rng = Rng.create seed in
      let db = random_db rng in
      let q = random_query rng ~with_params:false in
      let got = List.sort Tuple.compare (Eval.run db q ()) in
      let expect = Helpers.naive_spj_run db q () in
      if got <> expect then
        QCheck2.Test.fail_reportf "query %a: %d vs %d rows" Spj.pp q
          (List.length got) (List.length expect)
      else true)

(* prepare-once/run-many: a compiled plan must agree with one-shot [run]
   both before and after the database is mutated underneath it — the
   mutations also exercise the incremental maintenance of the relations'
   persistent secondary indexes, which the plan's joins probe *)
let prepared_agrees_with_run =
  Helpers.qtest ~count:300 "random SPJ: prepared plan = run, across updates"
    QCheck2.Gen.(int_range 0 100_000)
    string_of_int
    (fun seed ->
      let rng = Rng.create seed in
      let db = random_db rng in
      let with_params = Rng.int rng 2 = 0 in
      let q = random_query rng ~with_params in
      let plan = Eval.prepare db q in
      let params = if with_params then [| Value.Int (Rng.int rng 6) |] else [||] in
      let agree () =
        List.sort Tuple.compare (Eval.run_prepared db plan ~params ())
        = List.sort Tuple.compare (Eval.run db q ~params ())
      in
      let mutate () =
        let rname = List.nth [ "r1"; "r2"; "r3" ] (Rng.int rng 3) in
        let v () = Value.Int (Rng.int rng 6) in
        if Rng.int rng 2 = 0 then (
          let t =
            match rname with
            | "r1" -> [| Value.Int (100 + Rng.int rng 20); v () |]
            | "r2" -> [| Value.Int (100 + Rng.int rng 20); v (); v () |]
            | _ -> [| v (); v () |]
          in
          try Database.insert db rname t with _ -> ())
        else
          let key =
            match rname with
            | "r1" | "r2" -> [ Value.Int (Rng.int rng 16) ]
            | _ -> [ v (); v () ]
          in
          ignore (Database.delete_key db rname key)
      in
      let ok = ref (agree ()) in
      for _ = 1 to 4 do
        if !ok then begin
          mutate ();
          ok := agree ()
        end
      done;
      !ok)

let tests =
  [ eval_agrees_with_naive; prepared_agrees_with_run ]
