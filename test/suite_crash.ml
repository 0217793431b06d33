(* Crash-recovery properties: for EVERY byte length at which a crash can
   truncate the WAL, recovery must land on exactly the longest prefix of
   committed groups that fits — deep-equal (tree, database) to a
   reference engine that applied that prefix in memory, and internally
   consistent. A corrupted (not just torn) record must likewise cut the
   log at the damage point. *)

module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Tree = Rxv_xml.Tree
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Registrar = Rxv_workload.Registrar
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Frame = Rxv_persist.Frame
module Wal = Rxv_persist.Wal
module Persist = Rxv_persist.Persist

let check = Alcotest.(check bool)
let s = Value.str

let ins cno title path =
  Xupdate.Insert
    {
      etype = "course";
      attr = Registrar.course_attr cno title;
      path = Parser.parse path;
    }

let with_dir f = Helpers.with_temp_dir "crash-test" f
let rm_rf = Helpers.rm_rf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Run [ops] through a logged engine (sync Always, so the file length is
   exact after every commit). Returns the WAL image, the byte boundary
   after each committed record, and the reference snapshots (tree, db)
   after each prefix — index i = state after i committed groups. *)
let logged_run ~atg ~init ~seed ops dir =
  let p = Persist.open_dir ~sync:Wal.Always dir in
  let e =
    match Persist.recover ~seed p atg ~init with
    | Ok (e, _) -> e
    | Error msg -> Alcotest.failf "setup recover: %s" msg
  in
  Persist.attach p e;
  let wal = Persist.wal_path p 0 in
  let snapshot () = (Engine.to_tree e, Database.copy e.Engine.db) in
  let boundaries = ref [ 0 ] and snaps = ref [ snapshot () ] in
  List.iter
    (fun u ->
      (match Engine.apply e u with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "workload op rejected: %a" Engine.pp_rejection r);
      let size = (Unix.stat wal).Unix.st_size in
      (* one boundary per logged record: an op whose ΔR was empty writes
         nothing and leaves the state unchanged, so the previous snapshot
         still describes it — pushing one would desync record indexes *)
      if size > List.hd !boundaries then begin
        boundaries := size :: !boundaries;
        snaps := snapshot () :: !snaps
      end)
    ops;
  Persist.close p;
  Engine.detach_wal e;
  (read_file wal, List.rev !boundaries, List.rev !snaps)

(* Recover from a WAL truncated to [len] bytes and check the result
   against the expected prefix. *)
let check_crash_point ~atg ~init ~seed ~image ~boundaries ~snaps dir len =
  let sub = Filename.concat dir (Printf.sprintf "crash-%d" len) in
  rm_rf sub;
  let p = Persist.open_dir sub in
  write_file (Persist.wal_path p 0) (String.sub image 0 len);
  let expected =
    (* last boundary index that fits inside the surviving prefix *)
    let rec go i best = function
      | [] -> best
      | b :: rest -> if b <= len then go (i + 1) i rest else best
    in
    go 0 0 boundaries
  in
  (match Persist.recover ~seed p atg ~init with
  | Error msg -> Alcotest.failf "len %d: recover failed: %s" len msg
  | Ok (e, info) ->
      Alcotest.(check int)
        (Printf.sprintf "len %d: replayed" len)
        expected info.Persist.r_replayed;
      let clean = List.exists (fun b -> b = len) boundaries in
      check
        (Printf.sprintf "len %d: truncation flag" len)
        (not clean) info.Persist.r_truncated;
      let exp_tree, exp_db = List.nth snaps expected in
      check
        (Printf.sprintf "len %d: tree = reference prefix" len)
        true
        (Tree.equal_canonical exp_tree (Engine.to_tree e));
      check
        (Printf.sprintf "len %d: db = reference prefix" len)
        true
        (Database.equal exp_db e.Engine.db);
      (match Engine.check_consistency e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "len %d: inconsistent: %s" len msg);
      Persist.close p);
  rm_rf sub

let registrar_ops =
  [
    ins "CS210" "Systems" "course[cno=CS650]/prereq";
    Xupdate.Delete (Parser.parse "course[cno=CS650]/prereq/course[cno=CS320]");
    ins "CS211" "Networks" "course[cno=CS650]/prereq";
    Xupdate.Delete (Parser.parse "//student[name=Bob]");
  ]

(* every truncation point, exhaustively *)
let test_truncation_sweep () =
  with_dir (fun dir ->
      let atg = Registrar.atg () and init = Registrar.sample_db and seed = 9 in
      let image, boundaries, snaps =
        logged_run ~atg ~init ~seed registrar_ops (Filename.concat dir "base")
      in
      Alcotest.(check int) "all ops logged"
        (List.length registrar_ops + 1)
        (List.length boundaries);
      for len = 0 to String.length image do
        check_crash_point ~atg ~init ~seed ~image ~boundaries ~snaps dir len
      done)

(* a CRC-corrupted record (bit rot, not a torn tail) cuts the log there *)
let test_corrupt_record () =
  with_dir (fun dir ->
      let atg = Registrar.atg () and init = Registrar.sample_db and seed = 9 in
      let image, boundaries, snaps =
        logged_run ~atg ~init ~seed registrar_ops (Filename.concat dir "base")
      in
      (* flip one payload byte inside the second record *)
      let b1 = List.nth boundaries 1 in
      let bad = Bytes.of_string image in
      let pos = b1 + Frame.header_bytes in
      Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x40));
      let sub = Filename.concat dir "corrupt" in
      let p = Persist.open_dir sub in
      write_file (Persist.wal_path p 0) (Bytes.to_string bad);
      match Persist.recover ~seed p atg ~init with
      | Error msg -> Alcotest.failf "recover failed: %s" msg
      | Ok (e, info) ->
          Alcotest.(check int) "only the intact prefix" 1 info.Persist.r_replayed;
          check "damage reported" true info.Persist.r_truncated;
          let exp_tree, exp_db = List.nth snaps 1 in
          check "state = one-op prefix" true
            (Tree.equal_canonical exp_tree (Engine.to_tree e));
          check "db = one-op prefix" true (Database.equal exp_db e.Engine.db);
          (* the damaged tail was physically cut: reopening is clean *)
          let r = Wal.read (Persist.wal_path p 0) in
          check "tail truncated on disk" true (r.Wal.damage = None);
          Alcotest.(check int) "one record remains" 1 (List.length r.Wal.records);
          Persist.close p)

(* random crash points over random synthetic workloads *)
let crash_gen =
  QCheck2.Gen.(
    let* p = Helpers.small_dataset_gen in
    let* cut = int_range 0 1_000_000 in
    return (p, cut))

let test_random_crash =
  Helpers.qtest ~count:12 "random crash point recovers a prefix" crash_gen
    (fun (p, cut) -> Printf.sprintf "%s cut=%d" (Helpers.params_print p) cut)
    (fun (p, cut) ->
      with_dir (fun dir ->
          let d = Synth.generate p in
          let atg = Synth.atg () and seed = 3 in
          (* recovery mutates the database [init] returns: copy each time *)
          let init () = Database.copy d.Synth.db in
          (* a mixed insert/delete workload over the actual store *)
          let ops =
            let scratch = Engine.create ~seed atg (Database.copy d.Synth.db) in
            Updates.insertions d scratch.Engine.store Updates.W2 ~count:2
              ~seed:p.Synth.seed ()
            @ Updates.deletions scratch.Engine.store Updates.W2 ~count:2
                ~seed:(p.Synth.seed + 1)
          in
          QCheck2.assume (ops <> []);
          let image, boundaries, snaps =
            logged_run ~atg ~init ~seed ops (Filename.concat dir "base")
          in
          check_crash_point ~atg ~init ~seed ~image ~boundaries ~snaps dir
            (cut mod (String.length image + 1));
          true))

let tests =
  [
    Alcotest.test_case "truncation sweep (every byte)" `Quick
      test_truncation_sweep;
    Alcotest.test_case "corrupt record cuts the log" `Quick test_corrupt_record;
    test_random_crash;
  ]
