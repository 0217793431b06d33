(* End-to-end tests for WAL-streaming replication: primary → follower
   tail-streaming with byte-equal convergence, bounded-staleness reads
   (Query_at), checkpoint bootstrap for a follower joining past the
   primary's WAL horizon, router read-your-writes, and a QCheck property
   that any interleaving of commits, follower kill/rejoin, checkpoint
   rotation and primary restart converges to a byte-equal database. *)

module Database = Rxv_relational.Database
module Engine = Rxv_core.Engine
module Registrar = Rxv_workload.Registrar
module Codec = Rxv_persist.Codec
module Persist = Rxv_persist.Persist
module Proto = Rxv_server.Proto
module Server = Rxv_server.Server
module Client = Rxv_server.Client
module Resilient = Rxv_server.Resilient
module Follower = Rxv_replica.Follower

let check = Alcotest.(check bool)

(* ---- scratch dirs, sockets, polling ---- *)

let counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_dir f =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rxv-repl-test-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let fresh_sock () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rxv-rp%d-%d.sock" (Unix.getpid ()) !counter)

let await ?(timeout = 10.) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* unique course numbers so inserts never collide on the key *)
let cno_counter = ref 0

let fresh_ins () =
  incr cno_counter;
  Proto.Insert
    {
      etype = "course";
      attr =
        Registrar.course_attr
          (Printf.sprintf "CS5%04d" !cno_counter)
          "Replicated";
      path = "//course[cno=CS240]/prereq";
    }

(* ---- topology helpers ---- *)

let seed = 20070415 (* the engine's default WalkSAT seed *)

let start_primary dir sock =
  let p = Persist.open_dir dir in
  match Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db with
  | Error m -> Alcotest.failf "primary recovery: %s" m
  | Ok (e, _info) -> (p, Server.start ~persist:p (Server.Unix_sock sock) e)

let start_replica_server () =
  let sock = fresh_sock () in
  let config = { Server.default_config with Server.role = `Replica } in
  (Server.start ~config (Server.Unix_sock sock) (Registrar.engine ()), sock)

let start_follower ?(wait_ms = 100) ~name rsrv psock =
  Follower.start ~wait_ms ~name ~primary:(Server.Unix_sock psock)
    ~init:Registrar.sample_db ~seed rsrv

let enc_db db =
  let b = Buffer.create 8192 in
  Codec.database b db;
  Buffer.contents b

let db_of srv = (Server.engine srv).Engine.db

let apply_n c n last =
  for _ = 1 to n do
    match Client.update c [ fresh_ins () ] with
    | `Applied (seq, _) -> last := seq
    | `Rejected (_, m) -> Alcotest.failf "rejected: %s" m
    | `Overloaded -> Alcotest.fail "overloaded"
    | `Unavailable m -> Alcotest.failf "unavailable: %s" m
    | `Fenced (e, _) -> Alcotest.failf "fenced at epoch %d" e
    | `Error m -> Alcotest.failf "error: %s" m
  done

(* ---- tail streaming, read service, write rejection ---- *)

let test_stream_basic () =
  with_dir @@ fun dir ->
  let psock = fresh_sock () in
  let _p, psrv = start_primary dir psock in
  let rsrv, rsock = start_replica_server () in
  let f = start_follower ~name:"r1" rsrv psock in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Server.stop rsrv;
      Server.stop psrv)
  @@ fun () ->
  let c = Client.connect psock in
  let last = ref 0 in
  apply_n c 10 last;
  Client.close c;
  check "follower converged" true
    (await (fun () -> Follower.after f >= !last));
  check "database byte-equal" true
    (String.equal (enc_db (db_of psrv)) (enc_db (db_of rsrv)));
  let rc = Client.connect rsock in
  Fun.protect ~finally:(fun () -> Client.close rc) @@ fun () ->
  (match Client.query rc "//course" with
  | Ok (n, _) -> check "replica serves reads" true (n > 0)
  | Error m -> Alcotest.failf "replica query: %s" m);
  (* a replica's refusal is a definitive Fenced carrying the primary's
     address, not a retryable Unavailable — routers must redirect, not
     spin *)
  match Client.update rc [ fresh_ins () ] with
  | `Fenced (_, leader) ->
      check "fence names the primary" true (leader = "unix:" ^ psock)
  | _ -> Alcotest.fail "replica accepted a write"

(* ---- bounded-staleness reads ---- *)

let test_query_at_bounds () =
  with_dir @@ fun dir ->
  let psock = fresh_sock () in
  let _p, psrv = start_primary dir psock in
  let rsrv, rsock = start_replica_server () in
  let f = start_follower ~name:"r1" rsrv psock in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Server.stop rsrv;
      Server.stop psrv)
  @@ fun () ->
  let c = Client.connect psock in
  let last = ref 0 in
  apply_n c 5 last;
  Client.close c;
  let rc = Client.connect rsock in
  Fun.protect ~finally:(fun () -> Client.close rc) @@ fun () ->
  (* a pinned read at the primary's head waits for catch-up, then
     answers *)
  (match Client.query_at rc ~min_seq:!last ~wait_ms:5000 "//course" with
  | Ok (n, _) -> check "pinned read answered" true (n > 0)
  | Error (`Behind m) -> Alcotest.failf "pinned read stale: %s" m
  | Error (`Err m) -> Alcotest.failf "pinned read error: %s" m);
  check "gate is at least the pin" true (Server.applied_seq rsrv >= !last);
  (* a pin beyond anything committed must come back Behind, not block
     forever and not answer stale *)
  match Client.query_at rc ~min_seq:(!last + 100) ~wait_ms:50 "//course" with
  | Error (`Behind _) -> ()
  | Ok _ -> Alcotest.fail "future pin answered stale"
  | Error (`Err m) -> Alcotest.failf "future pin error: %s" m

(* ---- a committed group whose ΔR is empty is still one record ---- *)

let test_noop_group_one_record () =
  with_dir @@ fun dir ->
  let psock = fresh_sock () in
  let p, psrv = start_primary dir psock in
  let rsrv, rsock = start_replica_server () in
  let f = start_follower ~name:"r1" rsrv psock in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Server.stop rsrv;
      Server.stop psrv)
  @@ fun () ->
  let c = Client.connect psock in
  let seqs =
    List.map
      (fun op ->
        match Client.update c [ op ] with
        | `Applied (seq, _) -> seq
        | _ -> Alcotest.fail "update not applied")
      [ fresh_ins (); Proto.Delete "//course[cno=NOPE]"; fresh_ins () ]
  in
  Client.close c;
  Alcotest.(check (list int)) "commit numbers" [ 1; 2; 3 ] seqs;
  Alcotest.(check int) "one WAL record per commit" 3
    (Persist.records_since_checkpoint p);
  check "follower reached commit 3" true
    (await (fun () -> Follower.after f >= 3));
  let rc = Client.connect rsock in
  Fun.protect ~finally:(fun () -> Client.close rc) @@ fun () ->
  match Client.query_at rc ~min_seq:3 ~wait_ms:2000 "//course" with
  | Ok (n, _) -> check "read pinned at commit 3 answered" true (n > 0)
  | Error (`Behind m) -> Alcotest.failf "pinned read behind: %s" m
  | Error (`Err m) -> Alcotest.failf "pinned read error: %s" m

(* ---- checkpoint bootstrap: joining past the WAL horizon ---- *)

let test_checkpoint_bootstrap () =
  with_dir @@ fun dir ->
  let psock = fresh_sock () in
  let p0, psrv0 = start_primary dir psock in
  let c = Client.connect psock in
  let last = ref 0 in
  apply_n c 6 last;
  (match Client.checkpoint c with
  | Ok (generation, _) -> check "rotated" true (generation >= 1)
  | Error m -> Alcotest.failf "checkpoint: %s" m);
  Client.close c;
  (* restart the primary: the new feed starts at the rotated
     generation's base, so a from-scratch follower must bootstrap via
     the shipped checkpoint, not the log *)
  Server.stop psrv0;
  Persist.close p0;
  let _p, psrv = start_primary dir psock in
  let c = Client.connect psock in
  apply_n c 3 last;
  Client.close c;
  let rsrv, _rsock = start_replica_server () in
  let f = start_follower ~name:"boot" rsrv psock in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Server.stop rsrv;
      Server.stop psrv)
  @@ fun () ->
  check "bootstrapped follower converged" true
    (await (fun () -> Follower.after f >= !last));
  check "joined via checkpoint reset" true (Follower.resets f >= 1);
  check "database byte-equal after bootstrap" true
    (String.equal (enc_db (db_of psrv)) (enc_db (db_of rsrv)))

(* ---- volatile primary refuses replication in-protocol ---- *)

let test_volatile_primary_refuses () =
  let sock = fresh_sock () in
  let srv = Server.start (Server.Unix_sock sock) (Registrar.engine ()) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.repl_hello c ~follower:"r1" ~after:0 ~epoch:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "volatile server accepted a replication hello"

(* ---- router: writes to primary, reads see own writes ---- *)

let test_router_read_own_writes () =
  with_dir @@ fun dir ->
  let psock = fresh_sock () in
  let _p, psrv = start_primary dir psock in
  let rsrv1, rsock1 = start_replica_server () in
  let rsrv2, rsock2 = start_replica_server () in
  let f1 = start_follower ~wait_ms:50 ~name:"r1" rsrv1 psock in
  let f2 = start_follower ~wait_ms:50 ~name:"r2" rsrv2 psock in
  let router =
    Resilient.Router.create ~wait_ms:5000
      ~primary:(Resilient.Unix_path psock)
      [ Resilient.Unix_path rsock1; Resilient.Unix_path rsock2 ]
  in
  Fun.protect
    ~finally:(fun () ->
      Resilient.Router.close router;
      Follower.stop f1;
      Follower.stop f2;
      Server.stop rsrv1;
      Server.stop rsrv2;
      Server.stop psrv)
  @@ fun () ->
  let prev = ref 0 in
  for _ = 1 to 6 do
    (match Resilient.Router.update router [ fresh_ins () ] with
    | `Applied _ -> ()
    | `Rejected (_, m) -> Alcotest.failf "rejected: %s" m
    | `Error m -> Alcotest.failf "error: %s" m);
    (* immediately after the ack, a routed read must already include the
       write — the pin forces the serving replica up to the commit *)
    match Resilient.Router.query router "//course" with
    | Error m -> Alcotest.failf "routed query: %s" m
    | Ok (n, _) ->
        check "read includes own write" true (n > !prev);
        prev := n
  done;
  check "replicas served reads" true (Resilient.Router.reads_replica router > 0);
  check "pin advanced" true (Resilient.Router.pin router > 0)

(* ---- failover: promotion, fencing, exactly-once carry-over ---- *)

let start_durable_replica dir =
  let sock = fresh_sock () in
  let p = Persist.open_dir dir in
  match Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db with
  | Error m -> Alcotest.failf "replica recovery: %s" m
  | Ok (e, _info) ->
      let config = { Server.default_config with Server.role = `Replica } in
      (p, Server.start ~config ~persist:p (Server.Unix_sock sock) e, sock)

let start_durable_follower ?(wait_ms = 50) ~name ~persist rsrv psock =
  Follower.start ~wait_ms ~persist ~name ~primary:(Server.Unix_sock psock)
    ~init:Registrar.sample_db ~seed rsrv

let test_promote_failover () =
  with_dir @@ fun dir1 ->
  with_dir @@ fun dir2 ->
  let psock = fresh_sock () in
  let p1, psrv = start_primary dir1 psock in
  let p2, rsrv, rsock = start_durable_replica dir2 in
  let f = start_durable_follower ~name:"r1" ~persist:p2 rsrv psock in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Server.stop rsrv;
      Persist.close p2)
  @@ fun () ->
  (* acked pre-failover writes carry explicit request numbers so their
     dedup entries can be exercised against the new primary *)
  let c = Client.connect ~client_id:"cli-A" psock in
  let last = ref 0 in
  for i = 1 to 5 do
    match Client.update c ~req_seq:i [ fresh_ins () ] with
    | `Applied (seq, _) -> last := seq
    | _ -> Alcotest.fail "pre-failover write failed"
  done;
  Client.close c;
  check "follower caught up" true (await (fun () -> Follower.after f >= !last));
  Server.stop psrv;
  Persist.close p1;
  (* operator failover: promote the replica *)
  let rc = Client.connect rsock in
  (match Client.promote rc with
  | Ok (epoch, seq) ->
      Alcotest.(check int) "first promotion is epoch 1" 1 epoch;
      Alcotest.(check int) "adopts the applied position" !last seq
  | Error m -> Alcotest.failf "promote: %s" m);
  (match Client.promote rc with
  | Ok (epoch, _) -> Alcotest.(check int) "promote is idempotent" 1 epoch
  | Error m -> Alcotest.failf "re-promote: %s" m);
  Client.close rc;
  let rc = Client.connect ~client_id:"cli-A" rsock in
  Fun.protect ~finally:(fun () -> Client.close rc) @@ fun () ->
  (* exactly-once across promotion: a retry of a request the OLD primary
     acknowledged is answered from the replicated dedup lineage with the
     original commit number, not applied a second time *)
  (match Client.update rc ~req_seq:5 [ fresh_ins () ] with
  | `Applied (seq, _) ->
      Alcotest.(check int) "dedup carried across promotion" !last seq
  | _ -> Alcotest.fail "carried retry refused");
  (* fresh writes continue the replicated numbering under the new epoch *)
  (match Client.update rc ~req_seq:6 ~epoch:1 [ fresh_ins () ] with
  | `Applied (seq, _) ->
      Alcotest.(check int) "numbering continues" (!last + 1) seq
  | _ -> Alcotest.fail "post-failover write failed");
  (* a zombie: the deposed primary restarts still thinking it leads —
     the first epoch-stamped request it sees must depose and fence it *)
  let zp, zsrv = start_primary dir1 psock in
  Fun.protect
    ~finally:(fun () ->
      Server.stop zsrv;
      Persist.close zp)
  @@ fun () ->
  let zc = Client.connect psock in
  Fun.protect ~finally:(fun () -> Client.close zc) @@ fun () ->
  (match Client.update zc ~epoch:1 [ fresh_ins () ] with
  | `Fenced (e, _) -> Alcotest.(check int) "zombie deposed at epoch" 1 e
  | _ -> Alcotest.fail "zombie acknowledged an epoch-1 write");
  match Client.update zc [ fresh_ins () ] with
  | `Fenced _ -> ()
  | _ -> Alcotest.fail "deposed zombie accepted an epoch-0 write"

(* ---- divergence repair: a deposed primary rejoins and truncates its
   unreplicated suffix at the epoch boundary ---- *)

let test_divergence_repair () =
  with_dir @@ fun dir1 ->
  with_dir @@ fun dir2 ->
  let psock = fresh_sock () in
  let p1, psrv = start_primary dir1 psock in
  let p2, rsrv, rsock = start_durable_replica dir2 in
  let f = start_durable_follower ~name:"r1" ~persist:p2 rsrv psock in
  let c = Client.connect psock in
  let last = ref 0 in
  apply_n c 5 last;
  check "shared prefix replicated" true
    (await (fun () -> Follower.after f >= !last));
  (* stop pulling, then commit a suffix that will never replicate *)
  Follower.stop f;
  apply_n c 3 last;
  Client.close c;
  Server.stop psrv;
  Persist.close p1;
  (* failover: the replica (at commit 5) leads epoch 1 from there *)
  let rc = Client.connect rsock in
  (match Client.promote rc with
  | Ok (e, s) -> check "promoted at the shared prefix" true (e = 1 && s = 5)
  | Error m -> Alcotest.failf "promote: %s" m);
  Client.close rc;
  let c2 = Client.connect rsock in
  let last2 = ref 0 in
  apply_n c2 2 last2;
  Client.close c2;
  Alcotest.(check int) "epoch-1 numbering continues from the boundary" 7
    !last2;
  (* the deposed primary rejoins as a follower: its commits 6..8 are a
     diverged suffix beyond the epoch boundary and must be truncated *)
  let p1 = Persist.open_dir dir1 in
  match Persist.recover p1 (Registrar.atg ()) ~init:Registrar.sample_db with
  | Error m -> Alcotest.failf "rejoin recovery: %s" m
  | Ok (e1, _) ->
      let zsock = fresh_sock () in
      let config = { Server.default_config with Server.role = `Replica } in
      let zsrv = Server.start ~config ~persist:p1 (Server.Unix_sock zsock) e1 in
      check "rejoiner recovered its diverged suffix" true
        (Server.applied_seq zsrv = 8);
      let zf = start_durable_follower ~name:"old-primary" ~persist:p1 zsrv rsock in
      Fun.protect
        ~finally:(fun () ->
          Follower.stop zf;
          Server.stop zsrv;
          Persist.close p1;
          Server.stop rsrv;
          Persist.close p2)
      @@ fun () ->
      check "rejoiner converged on the new history" true
        (await (fun () ->
             Follower.repairs zf >= 1 && Follower.after zf >= !last2));
      Alcotest.(check int) "exactly one divergence repair" 1
        (Follower.repairs zf);
      Alcotest.(check int) "rejoiner adopted the new epoch" 1
        (Follower.epoch zf);
      check "byte-equal after repair" true
        (String.equal (enc_db (db_of rsrv)) (enc_db (db_of zsrv)))

(* ---- router failover: same client identity and request numbers
   re-sent around the candidate ring ---- *)

let test_router_failover () =
  with_dir @@ fun dir1 ->
  with_dir @@ fun dir2 ->
  let psock = fresh_sock () in
  let p1, psrv = start_primary dir1 psock in
  let p2, rsrv, rsock = start_durable_replica dir2 in
  let f = start_durable_follower ~name:"r1" ~persist:p2 rsrv psock in
  let router =
    Resilient.Router.create ~wait_ms:2000 ~failover_timeout:20.
      ~primary:(Resilient.Unix_path psock)
      [ Resilient.Unix_path rsock ]
  in
  Fun.protect
    ~finally:(fun () ->
      Resilient.Router.close router;
      Follower.stop f;
      Server.stop rsrv;
      Persist.close p2)
  @@ fun () ->
  let before =
    match Resilient.Router.query router "//course" with
    | Ok (n, _) -> n
    | Error m -> Alcotest.failf "baseline query: %s" m
  in
  let acked = ref 0 in
  let write () =
    match Resilient.Router.update router [ fresh_ins () ] with
    | `Applied _ -> incr acked
    | `Rejected (_, m) -> Alcotest.failf "rejected: %s" m
    | `Error m -> Alcotest.failf "write failed: %s" m
  in
  for _ = 1 to 4 do
    write ()
  done;
  check "replica converged" true (await (fun () -> Follower.after f >= !acked));
  (* the primary dies; the operator promotes the replica; the SAME
     router keeps writing and finds the new primary by itself *)
  Server.stop psrv;
  Persist.close p1;
  let rc = Client.connect rsock in
  (match Client.promote rc with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "promote: %s" m);
  Client.close rc;
  for _ = 1 to 3 do
    write ()
  done;
  check "router recorded the failover" true
    (Resilient.Router.failovers router >= 1);
  check "router learned the new epoch" true
    (Resilient.Router.epoch_seen router >= 1);
  (* every acked write landed exactly once *)
  match Resilient.Router.query router "//course" with
  | Ok (n, _) -> Alcotest.(check int) "exactly-once count" (before + !acked) n
  | Error m -> Alcotest.failf "final query: %s" m

(* ---- Repl_reset racing in-flight pulls: checkpoint rotation while the
   follower's long-poll is parked ---- *)

let test_reset_race () =
  with_dir @@ fun dir ->
  let psock = fresh_sock () in
  let _p, psrv = start_primary dir psock in
  let rsrv, _rsock = start_replica_server () in
  (* long polls maximize the window in which a rotation's feed reset
     overlaps an in-flight pull *)
  let f = start_follower ~wait_ms:400 ~name:"racer" rsrv psock in
  Fun.protect
    ~finally:(fun () ->
      Follower.stop f;
      Server.stop rsrv;
      Server.stop psrv)
  @@ fun () ->
  let c = Client.connect psock in
  let last = ref 0 in
  for round = 1 to 8 do
    apply_n c 3 last;
    match Client.checkpoint c with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "checkpoint %d: %s" round m
  done;
  apply_n c 2 last;
  Client.close c;
  check "follower survived reset races" true
    (await (fun () -> Follower.after f >= !last));
  check "byte-equal after reset races" true
    (String.equal (enc_db (db_of psrv)) (enc_db (db_of rsrv)))

(* ---- QCheck: interleavings of commits and failovers (epoch bumps)
   stay exactly-once and converge byte-equal ---- *)

type fev = Fcommit of int | Ffailover

let fev_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun n -> Fcommit (1 + (n mod 3))) small_nat);
        (2, return Ffailover);
      ])

let fevents_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat " "
        (List.map
           (function
             | Fcommit n -> Printf.sprintf "c%d" n | Ffailover -> "FAILOVER")
           l))
    QCheck.Gen.(list_size (int_range 3 8) fev_gen)

let test_failover_convergence =
  QCheck.Test.make ~count:5
    ~name:"failover interleavings: epoch bumps, exactly-once, convergence"
    fevents_arb
    (fun evs ->
      with_dir @@ fun dir1 ->
      with_dir @@ fun dir2 ->
      let sock1 = fresh_sock () and sock2 = fresh_sock () in
      let open_primary dir sock =
        let p = Persist.open_dir dir in
        match
          Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db
        with
        | Error m -> Alcotest.failf "recover: %s" m
        | Ok (e, _) ->
            (p, Server.start ~persist:p (Server.Unix_sock sock) e, None)
      in
      let open_standby dir sock ~of_sock =
        let p = Persist.open_dir dir in
        match
          Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db
        with
        | Error m -> Alcotest.failf "recover: %s" m
        | Ok (e, _) ->
            let config =
              { Server.default_config with Server.role = `Replica }
            in
            let srv = Server.start ~config ~persist:p (Server.Unix_sock sock) e in
            let f =
              Follower.start ~wait_ms:50 ~persist:p ~name:"standby"
                ~primary:(Server.Unix_sock of_sock) ~init:Registrar.sample_db
                ~seed srv
            in
            (p, srv, Some f)
      in
      let prim = ref (open_primary dir1 sock1) in
      let stand = ref (open_standby dir2 sock2 ~of_sock:sock1) in
      let prim_sock = ref sock1 and stand_sock = ref sock2 in
      let prim_dir = ref dir1 and stand_dir = ref dir2 in
      let router =
        Resilient.Router.create ~wait_ms:3000 ~failover_timeout:20.
          ~primary:(Resilient.Unix_path sock1)
          [ Resilient.Unix_path sock2 ]
      in
      let acked = ref 0 in
      let n_failovers = ref 0 in
      let close_node (p, srv, f) =
        Option.iter Follower.stop f;
        Server.stop srv;
        Persist.close p
      in
      (* caught up = has the full acked history AND has heard the
         current epoch from the primary — promoting a rejoiner that
         never completed a pull would fork the epoch sequence *)
      let standby_caught_up () =
        match !stand with
        | _, _, Some f ->
            await ~timeout:20. (fun () ->
                Follower.after f >= !acked
                && Follower.epoch f >= !n_failovers)
        | _ -> true
      in
      let commit k =
        for _ = 1 to k do
          match Resilient.Router.update router [ fresh_ins () ] with
          | `Applied _ -> incr acked
          | `Rejected (_, m) -> Alcotest.failf "rejected: %s" m
          | `Error m -> Alcotest.failf "write failed: %s" m
        done
      in
      let failover () =
        (* wait for full replication first so the audit stays exact —
           a lagging promotion is the divergence-repair test's subject *)
        if not (standby_caught_up ()) then
          Alcotest.fail "standby never caught up before failover";
        close_node !prim;
        (let rc = Client.connect !stand_sock in
         Fun.protect ~finally:(fun () -> Client.close rc) @@ fun () ->
         match Client.promote rc with
         | Ok _ -> incr n_failovers
         | Error m -> Alcotest.failf "promote: %s" m);
        (* the deposed node rejoins as the new standby *)
        let fresh = open_standby !prim_dir !prim_sock ~of_sock:!stand_sock in
        prim := !stand;
        stand := fresh;
        let s = !prim_sock in
        prim_sock := !stand_sock;
        stand_sock := s;
        let d = !prim_dir in
        prim_dir := !stand_dir;
        stand_dir := d
      in
      Fun.protect
        ~finally:(fun () ->
          Resilient.Router.close router;
          close_node !prim;
          close_node !stand)
        (fun () ->
          List.iter
            (function Fcommit k -> commit k | Ffailover -> failover ())
            evs;
          commit 1;
          if not (standby_caught_up ()) then
            QCheck.Test.fail_report "standby stuck after the event sequence";
          let _, psrv, _ = !prim and _, ssrv, _ = !stand in
          (* exactly-once: one commit per acked write, no replays lost *)
          let commits = Rxv_server.Batcher.seq (Server.batcher psrv) in
          if commits <> !acked then
            QCheck.Test.fail_reportf "%d acked writes but %d commits" !acked
              commits;
          if Server.epoch psrv <> !n_failovers then
            QCheck.Test.fail_reportf "epoch %d after %d failovers"
              (Server.epoch psrv) !n_failovers;
          if not (String.equal (enc_db (db_of psrv)) (enc_db (db_of ssrv)))
          then QCheck.Test.fail_report "databases differ";
          true))

(* ---- QCheck: interleavings of commits, kill, rejoin, rotation,
   primary restart all converge byte-equal ---- *)

type ev = Commit of int | Kill | Restart | Ckpt | Bounce

let pp_ev = function
  | Commit n -> Printf.sprintf "commit%d" n
  | Kill -> "kill"
  | Restart -> "restart"
  | Ckpt -> "ckpt"
  | Bounce -> "bounce"

let ev_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> Commit (1 + (n mod 3))) small_nat);
        (2, return Kill);
        (2, return Restart);
        (2, return Ckpt);
        (1, return Bounce);
      ])

let events_arb =
  QCheck.make
    ~print:(fun evs -> String.concat " " (List.map pp_ev evs))
    QCheck.Gen.(list_size (int_range 4 12) ev_gen)

let test_convergence =
  QCheck.Test.make ~count:8 ~name:"replication convergence under interleavings"
    events_arb
    (fun evs ->
      with_dir @@ fun dir ->
      let psock = fresh_sock () in
      let p, psrv = start_primary dir psock in
      let pstate = ref (p, psrv) in
      let rsrv, _rsock = start_replica_server () in
      let f = ref (Some (start_follower ~wait_ms:50 ~name:"q" rsrv psock)) in
      let writer = Resilient.create (Resilient.Unix_path psock) in
      let last = ref 0 in
      let stop_follower () =
        match !f with
        | Some fo ->
            Follower.stop fo;
            f := None
        | None -> ()
      in
      let run_ev = function
        | Commit k -> (
            for _ = 1 to k do
              match Resilient.update writer [ fresh_ins () ] with
              | `Applied (seq, _) -> last := seq
              | `Rejected (_, m) -> Alcotest.failf "rejected: %s" m
              | `Error m -> Alcotest.failf "write failed: %s" m
            done)
        | Kill -> stop_follower ()
        | Restart ->
            if !f = None then
              f := Some (start_follower ~wait_ms:50 ~name:"q" rsrv psock)
        | Ckpt -> (
            let c = Client.connect psock in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            match Client.checkpoint c with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "checkpoint: %s" m)
        | Bounce ->
            let p, psrv = !pstate in
            Server.stop psrv;
            Persist.close p;
            pstate := start_primary dir psock
      in
      Fun.protect
        ~finally:(fun () ->
          Resilient.close writer;
          stop_follower ();
          Server.stop rsrv;
          let p, psrv = !pstate in
          Server.stop psrv;
          Persist.close p)
        (fun () ->
          List.iter run_ev evs;
          if !f = None then
            f := Some (start_follower ~wait_ms:50 ~name:"q" rsrv psock);
          let fo = Option.get !f in
          let converged = await ~timeout:20. (fun () -> Follower.after fo >= !last) in
          let _, psrv = !pstate in
          let equal =
            String.equal (enc_db (db_of psrv)) (enc_db (db_of rsrv))
          in
          if not converged then
            QCheck.Test.fail_reportf "follower stuck at %d < %d (last: %s)"
              (Follower.after fo) !last
              (match Follower.last_error fo with Some e -> e | None -> "-");
          if not equal then QCheck.Test.fail_report "databases differ";
          true))

let tests =
  [
    Alcotest.test_case "tail-stream, serve, reject writes" `Quick
      test_stream_basic;
    Alcotest.test_case "bounded-staleness reads" `Quick test_query_at_bounds;
    Alcotest.test_case "no-op group is one commit, one record" `Quick
      test_noop_group_one_record;
    Alcotest.test_case "checkpoint bootstrap past horizon" `Quick
      test_checkpoint_bootstrap;
    Alcotest.test_case "volatile primary refuses stream" `Quick
      test_volatile_primary_refuses;
    Alcotest.test_case "router read-your-writes" `Quick
      test_router_read_own_writes;
    Alcotest.test_case "promote, fence zombie, dedup carry-over" `Quick
      test_promote_failover;
    Alcotest.test_case "deposed primary repairs diverged suffix" `Quick
      test_divergence_repair;
    Alcotest.test_case "router rides out a failover" `Quick
      test_router_failover;
    Alcotest.test_case "reset racing in-flight pulls" `Quick test_reset_race;
    QCheck_alcotest.to_alcotest test_failover_convergence;
    QCheck_alcotest.to_alcotest test_convergence;
  ]
