(* Soak tester: long random sequences of view updates (Engine.apply) and
   direct relational updates (Base_update.apply) interleaved on synthetic
   datasets, asserting full consistency (view ≡ republication, L valid,
   M ≡ recomputation) after every operation.

   Usage: dune exec bin/stress.exe -- [rounds] [max_n]
   (defaults: 200 rounds, datasets up to 80 keys)

   Client mode: with --server SOCK the process instead becomes a swarm
   of protocol clients hammering a running `rxv serve` instance
   (registrar scenario) over its Unix-domain socket —

     dune exec bin/stress.exe -- --server /tmp/rxv.sock [clients] [reqs]

   (defaults: 8 clients, 200 requests each; ~70% update groups, 30%
   queries). Exits non-zero on any protocol error; Overloaded replies
   are counted as backpressure, not failures.

   Chaos mode: with --chaos SOCK the swarm uses the resilient
   (reconnect + exactly-once retry) client instead, for servers running
   with failpoints armed (`rxv serve --failpoints ...`). After the run
   it audits that every acknowledged insert is present exactly once —

     dune exec bin/stress.exe -- --chaos /tmp/rxv.sock [clients] [reqs]

   Replica mode: with --replicas the swarm exercises a replication
   topology — one writer committing to the primary while reader threads
   fan queries across the replicas through the routing client
   (read-your-writes pins), then audits convergence: every replica must
   catch up to the writer's last commit and answer a pinned read —

     dune exec bin/stress.exe -- \
       --replicas /tmp/p.sock /tmp/r1.sock,/tmp/r2.sock [readers] [reads]

   Failover mode: with --failover the process hosts its own two-node
   cluster (durable primary + durable standby, both in scratch
   directories) and drives a routed write swarm THROUGH repeated
   failovers: the controller stops the primary mid-swarm, promotes the
   standby, and rejoins the deposed node as the new standby, ping-pong,
   while every writer keeps its router and client identity. Afterwards
   it audits that no acknowledged insert appears twice anywhere, that
   fresh writes flow, and that both nodes converge to BYTE-IDENTICAL
   databases —

     dune exec bin/stress.exe -- --failover [writers] [reqs] [failovers] *)

module Engine = Rxv_core.Engine
module Base_update = Rxv_core.Base_update
module Xupdate = Rxv_core.Xupdate
module Group_update = Rxv_relational.Group_update
module Value = Rxv_relational.Value
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Rng = Rxv_sat.Rng

let i = Value.int

let check_or_die e ctx =
  match Engine.check_consistency e with
  | Ok () -> ()
  | Error m ->
      Printf.printf "INCONSISTENT after %s: %s\n%!" ctx m;
      exit 1

let random_base_group d rng n g =
  List.concat
    (List.init 2 (fun j ->
         match Rng.int rng 3 with
         | 0 ->
             let a = Rng.int rng (n - 1) in
             let b = a + 1 + Rng.int rng (n - a - 1) in
             [ Group_update.Insert ("H", [| i a; i b |]) ]
         | 1 -> (
             match d.Synth.h_pairs with
             | [] -> []
             | pairs ->
                 let a, b = List.nth pairs (Rng.int rng (List.length pairs)) in
                 [ Group_update.Delete ("H", [ i a; i b ]) ])
         | _ ->
             let k = (3 * n) + 500 + (g * 10) + j in
             let parent = Rng.int rng n in
             let row =
               Array.init 16 (fun c ->
                   if c = 0 then i k
                   else if c = 15 then Value.Bool (k land 1 = 1)
                   else i ((k * 31) + c))
             in
             [
               Group_update.Insert ("CU", row);
               Group_update.Insert ("F", Array.copy row);
               Group_update.Insert ("H", [| i parent; i k |]);
             ]))

let run_round round max_n =
  let n = 12 + (round * 7 mod max_n) in
  let levels = 2 + (round mod 4) in
  let fanout = 1 + (round mod 4) in
  let p = Synth.default_params ~levels ~fanout ~seed:round n in
  let d = Synth.generate p in
  let e = Engine.create ~seed:round (Synth.atg ()) d.Synth.db in
  let rng = Rng.create (round * 31 + 7) in
  let applied = ref 0 and rejected = ref 0 in
  (* interleave: view deletions / view insertions / base groups *)
  for step = 0 to 7 do
    let cls =
      match step mod 3 with 0 -> Updates.W1 | 1 -> Updates.W2 | _ -> Updates.W3
    in
    (match step mod 4 with
    | 0 -> (
        match Updates.deletions e.Engine.store cls ~count:1 ~seed:(Rng.int rng 10_000) with
        | [ u ] -> (
            match Engine.apply ~policy:`Proceed e u with
            | Ok _ -> incr applied
            | Error _ -> incr rejected)
        | _ -> ())
    | 1 -> (
        match
          Updates.insertions d e.Engine.store cls ~count:1
            ~seed:(Rng.int rng 10_000) ()
        with
        | [ u ] -> (
            match Engine.apply ~policy:`Proceed e u with
            | Ok _ -> incr applied
            | Error _ -> incr rejected)
        | _ -> ())
    | 2 -> (
        (* unlink a c, then link it back: a re-link of an edge still in
           the view would change nothing *)
        match
          Updates.relinks d e.Engine.store cls ~count:1
            ~seed:(Rng.int rng 10_000)
        with
        | [ (del, ins) ] ->
            List.iter
              (fun u ->
                match Engine.apply ~policy:`Proceed e u with
                | Ok _ -> incr applied
                | Error _ -> incr rejected)
              [ del; ins ]
        | _ -> ())
    | _ -> (
        let g = random_base_group d rng n step in
        if g <> [] then
          match Base_update.apply e g with
          | Ok _ -> incr applied
          | Error _ -> incr rejected));
    check_or_die e (Printf.sprintf "round %d step %d (n=%d)" round step n)
  done;
  (!applied, !rejected)

(* ---- client mode: drive a live server over the wire protocol ---- *)

module Proto = Rxv_server.Proto
module Client = Rxv_server.Client

let client_mode sock n_clients per_client =
  let t0 = Unix.gettimeofday () in
  let applied = ref 0
  and rejected = ref 0
  and overloaded = ref 0
  and queried = ref 0 in
  let m = Mutex.create () in
  let tally r =
    Mutex.lock m;
    incr r;
    Mutex.unlock m
  in
  let queries =
    [|
      "//course";
      "//course[cno=CS240]/prereq/course";
      "//course[cno=CS320]/takenBy/student";
      "//student[ssn=S02]";
    |]
  in
  let client w () =
    let c = Client.connect sock in
    for r = 0 to per_client - 1 do
      if r mod 10 < 3 then (
        match Client.query c queries.(r mod Array.length queries) with
        | Ok _ -> tally queried
        | Error msg ->
            Printf.eprintf "client %d: query error: %s\n%!" w msg;
            exit 1)
      else
        let cno = Printf.sprintf "SW%dR%d" w r in
        let req =
          if r mod 9 = 7 then
            (* occasionally delete something this client inserted *)
            [ Proto.Delete (Printf.sprintf "//course[cno=SW%dR%d]" w (r - 1)) ]
          else
            [
              Proto.Insert
                {
                  etype = "course";
                  attr = Rxv_workload.Registrar.course_attr cno "Stress";
                  path = "//course[cno=CS240]/prereq";
                };
            ]
        in
        match Client.update c req with
        | `Applied _ -> tally applied
        | `Rejected _ -> tally rejected
        | `Overloaded -> tally overloaded
        | `Unavailable msg ->
            Printf.eprintf "client %d: server unavailable: %s\n%!" w msg;
            exit 1
        | `Error msg ->
            Printf.eprintf "client %d: update error: %s\n%!" w msg;
            exit 1
        | `Fenced (e, _) ->
            Printf.eprintf "client %d: fenced at epoch %d\n%!" w e;
            exit 1
    done;
    Client.close c
  in
  let threads = List.init n_clients (fun w -> Thread.create (client w) ()) in
  List.iter Thread.join threads;
  let c = Client.connect sock in
  (match Client.stats c with
  | Ok st ->
      Printf.printf "server: %d nodes, %d edges, generation %d%s\n"
        st.Proto.st_nodes st.Proto.st_edges st.Proto.st_generation
        (match st.Proto.st_wal_records with
        | Some k -> Printf.sprintf ", %d WAL records since checkpoint" k
        | None -> " (no WAL)");
      List.iter
        (fun (k, v) -> Printf.printf "  %-12s %d\n" k v)
        st.Proto.st_counters;
      List.iter
        (fun s ->
          Printf.printf "  %-12s p50=%dus p95=%dus p99=%dus (n=%d)\n"
            s.Rxv_server.Metrics.s_kind s.Rxv_server.Metrics.s_p50_us
            s.Rxv_server.Metrics.s_p95_us s.Rxv_server.Metrics.s_p99_us
            s.Rxv_server.Metrics.s_count)
        st.Proto.st_latencies
  | Error msg ->
      Printf.eprintf "stats error: %s\n%!" msg;
      exit 1);
  Client.close c;
  let dt = Unix.gettimeofday () -. t0 in
  let total = !applied + !rejected + !overloaded + !queried in
  Printf.printf
    "stress OK (client mode): %d requests from %d clients in %.1fs \
     (%.0f req/s) — %d applied, %d rejected, %d overloaded, %d queries\n%!"
    total n_clients dt
    (float_of_int total /. dt)
    !applied !rejected !overloaded !queried

(* ---- chaos mode: resilient swarm against a fault-injected server ---- *)

module Resilient = Rxv_server.Resilient

let chaos_mode sock n_clients per_client =
  let t0 = Unix.gettimeofday () in
  let applied = ref 0
  and rejected = ref 0
  and gave_up = ref 0
  and queried = ref 0
  and reconnects = ref 0
  and retries = ref 0 in
  let m = Mutex.create () in
  let protect f =
    Mutex.lock m;
    let r = f () in
    Mutex.unlock m;
    r
  in
  let acked : string list ref = ref [] in
  let client w () =
    let c =
      Resilient.create ~timeout:1.0 ~max_attempts:30 ~seed:w
        (Resilient.Unix_path sock)
    in
    for r = 0 to per_client - 1 do
      if r mod 8 = 5 then (
        match Resilient.query c "//course[cno=CS240]/prereq/course" with
        | Ok _ -> protect (fun () -> incr queried)
        | Error _ ->
            (* queries carry no state; a lost one is chaos, not a bug *)
            protect (fun () -> incr gave_up))
      else
        let cno = Printf.sprintf "CH%dR%d" w r in
        let req =
          [
            Proto.Insert
              {
                etype = "course";
                attr = Rxv_workload.Registrar.course_attr cno "Chaos";
                path = "//course[cno=CS240]/prereq";
              };
          ]
        in
        match Resilient.update c req with
        | `Applied _ ->
            protect (fun () ->
                incr applied;
                acked := cno :: !acked)
        | `Rejected _ -> protect (fun () -> incr rejected)
        | `Error _ -> protect (fun () -> incr gave_up)
    done;
    protect (fun () ->
        reconnects := !reconnects + Resilient.reconnects c;
        retries := !retries + Resilient.retries c);
    Resilient.close c
  in
  let threads = List.init n_clients (fun w -> Thread.create (client w) ()) in
  List.iter Thread.join threads;
  (* exactly-once audit: every acked insert is present exactly once *)
  let v =
    Resilient.create ~timeout:5.0 ~max_attempts:60 (Resilient.Unix_path sock)
  in
  let dupes = ref 0 and missing = ref 0 in
  List.iter
    (fun cno ->
      match Resilient.query v (Printf.sprintf "//course[cno=%s]" cno) with
      | Ok (1, _) -> ()
      | Ok (0, _) ->
          Printf.eprintf "EXACTLY-ONCE VIOLATION: acked %s missing\n%!" cno;
          incr missing
      | Ok (n, _) ->
          Printf.eprintf "EXACTLY-ONCE VIOLATION: acked %s appears %d times\n%!"
            cno n;
          incr dupes
      | Error msg ->
          Printf.eprintf "audit query failed for %s: %s\n%!" cno msg;
          incr missing)
    !acked;
  Resilient.close v;
  let dt = Unix.gettimeofday () -. t0 in
  let total = !applied + !rejected + !gave_up + !queried in
  Printf.printf
    "chaos %s: %d requests from %d clients in %.1fs — %d applied, %d \
     rejected, %d gave up, %d queries; %d reconnects, %d retries; audit: %d \
     acked inserts, %d dupes, %d missing\n%!"
    (if !dupes = 0 && !missing = 0 then "OK" else "FAILED")
    total n_clients dt !applied !rejected !gave_up !queried !reconnects
    !retries (List.length !acked) !dupes !missing;
  if !dupes > 0 || !missing > 0 then exit 1

(* ---- replica mode: read swarm over replicas while a writer commits ---- *)

let replica_mode psock rsocks n_readers per_reader =
  let t0 = Unix.gettimeofday () in
  let stop = ref false in
  let last_commit = ref 0 in
  let m = Mutex.create () in
  let protect f =
    Mutex.lock m;
    let r = f () in
    Mutex.unlock m;
    r
  in
  let writer =
    Thread.create
      (fun () ->
        let c = Resilient.create ~seed:99 (Resilient.Unix_path psock) in
        let r = ref 0 in
        while not !stop do
          incr r;
          let cno = Printf.sprintf "RP%06d" !r in
          (match
             Resilient.update c
               [
                 Proto.Insert
                   {
                     etype = "course";
                     attr = Rxv_workload.Registrar.course_attr cno "Replica";
                     path = "//course[cno=CS240]/prereq";
                   };
               ]
           with
          | `Applied (seq, _) -> protect (fun () -> last_commit := seq)
          | `Rejected _ | `Error _ -> ());
          Thread.delay 0.002
        done;
        Resilient.close c)
      ()
  in
  let reads = ref 0
  and stale = ref 0
  and replica_served = ref 0
  and primary_served = ref 0
  and redirected = ref 0 in
  let reader w () =
    let router =
      Resilient.Router.create ~seed:w ~wait_ms:5000
        ~primary:(Resilient.Unix_path psock)
        (List.map (fun s -> Resilient.Unix_path s) rsocks)
    in
    let before = ref (-1) in
    for r = 1 to per_reader do
      (* every 25th iteration: write through the router, then check the
         very next routed read includes it (the pin's guarantee) *)
      if r mod 25 = 0 then begin
        (match Resilient.Router.query router "//course" with
        | Ok (n, _) -> before := n
        | Error _ -> before := -1);
        let cno = Printf.sprintf "RW%dI%d" w r in
        match
          Resilient.Router.update router
            [
              Proto.Insert
                {
                  etype = "course";
                  attr = Rxv_workload.Registrar.course_attr cno "Pinned";
                  path = "//course[cno=CS240]/prereq";
                };
            ]
        with
        | `Applied _ -> (
            match Resilient.Router.query router "//course" with
            | Ok (n, _) ->
                protect (fun () ->
                    incr reads;
                    if !before >= 0 && n <= !before then incr stale)
            | Error msg ->
                Printf.eprintf "reader %d: pinned read failed: %s\n%!" w msg;
                exit 1)
        | `Rejected _ | `Error _ -> ()
      end
      else
        match Resilient.Router.query router "//course" with
        | Ok _ -> protect (fun () -> incr reads)
        | Error msg ->
            Printf.eprintf "reader %d: routed read failed: %s\n%!" w msg;
            exit 1
    done;
    protect (fun () ->
        replica_served := !replica_served + Resilient.Router.reads_replica router;
        primary_served := !primary_served + Resilient.Router.reads_primary router;
        redirected := !redirected + Resilient.Router.redirects router);
    Resilient.Router.close router
  in
  let threads = List.init n_readers (fun w -> Thread.create (reader w) ()) in
  List.iter Thread.join threads;
  stop := true;
  Thread.join writer;
  (* convergence audit: every replica must catch up to the writer's last
     acknowledged commit and answer a read pinned there *)
  let behind = ref 0 in
  List.iter
    (fun sock ->
      let c = Client.connect sock in
      (match Client.query_at c ~min_seq:!last_commit ~wait_ms:15000 "//course"
       with
      | Ok _ -> ()
      | Error (`Behind msg) ->
          Printf.eprintf "replica %s did not converge: %s\n%!" sock msg;
          incr behind
      | Error (`Err msg) ->
          Printf.eprintf "replica %s: %s\n%!" sock msg;
          incr behind);
      Client.close c)
    rsocks;
  (* surface the primary's view of its followers *)
  let c = Client.connect psock in
  (match Client.stats c with
  | Ok st ->
      List.iter
        (fun (k, v) ->
          if String.length k >= 5 && String.sub k 0 5 = "repl_" then
            Printf.printf "  %-32s %d\n" k v)
        st.Proto.st_gauges
  | Error _ -> ());
  Client.close c;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "replica swarm %s: %d routed reads from %d readers over %d replica(s) \
     in %.1fs (%.0f reads/s) — %d replica-served, %d primary-served, %d \
     redirects, %d stale pinned reads, %d unconverged; writer reached \
     commit %d\n%!"
    (if !stale = 0 && !behind = 0 then "OK" else "FAILED")
    !reads n_readers (List.length rsocks) dt
    (float_of_int !reads /. dt)
    !replica_served !primary_served !redirected !stale !behind !last_commit;
  if !stale > 0 || !behind > 0 then exit 1

(* ---- failover mode: routed write swarm through repeated promotions ---- *)

module Server = Rxv_server.Server
module Persist = Rxv_persist.Persist
module Codec = Rxv_persist.Codec
module Follower = Rxv_replica.Follower
module Registrar = Rxv_workload.Registrar

let failover_mode n_writers per_writer n_failovers =
  let t0 = Unix.gettimeofday () in
  let tmp = Filename.get_temp_dir_name () in
  let scratch name =
    let d = Filename.concat tmp (Printf.sprintf "rxv-fo-%d-%s" (Unix.getpid ()) name) in
    let rec rm_rf path =
      match Unix.lstat path with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
      | { Unix.st_kind = Unix.S_DIR; _ } ->
          Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
          Unix.rmdir path
      | _ -> Sys.remove path
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    (d, fun () -> rm_rf d)
  in
  let dir1, clean1 = scratch "a" and dir2, clean2 = scratch "b" in
  let sock1 = Filename.concat dir1 "node.sock"
  and sock2 = Filename.concat dir2 "node.sock" in
  let die fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "failover swarm FAILED: %s\n%!" m;
        exit 1)
      fmt
  in
  let open_node ~role ~dir ~sock ~follow =
    let p = Persist.open_dir dir in
    match Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db with
    | Error m -> die "recovery of %s: %s" dir m
    | Ok (e, _) ->
        let config = { Server.default_config with Server.role } in
        let srv = Server.start ~config ~persist:p (Server.Unix_sock sock) e in
        let f =
          match follow with
          | None -> None
          | Some upstream ->
              Some
                (Follower.start ~wait_ms:50 ~persist:p ~name:"standby"
                   ~primary:(Server.Unix_sock upstream)
                   ~init:Registrar.sample_db ~seed:20070415 srv)
        in
        (p, srv, f)
  in
  let prim = ref (open_node ~role:`Primary ~dir:dir1 ~sock:sock1 ~follow:None) in
  let stand =
    ref (open_node ~role:`Replica ~dir:dir2 ~sock:sock2 ~follow:(Some sock1))
  in
  let prim_sock = ref sock1 and stand_sock = ref sock2 in
  let prim_dir = ref dir1 and stand_dir = ref dir2 in
  let m = Mutex.create () in
  let protect f =
    Mutex.lock m;
    let r = f () in
    Mutex.unlock m;
    r
  in
  let acked : string list ref = ref [] in
  let n_acked () = protect (fun () -> List.length !acked) in
  let failovers_done = ref 0 in
  let writer w () =
    let router =
      Resilient.Router.create ~seed:w ~timeout:1.0 ~wait_ms:5000
        ~failover_timeout:60.
        ~primary:(Resilient.Unix_path sock1)
        [ Resilient.Unix_path sock2 ]
    in
    for r = 0 to per_writer - 1 do
      let cno = Printf.sprintf "FO%dR%d" w r in
      match
        Resilient.Router.update router
          [
            Proto.Insert
              {
                etype = "course";
                attr = Registrar.course_attr cno "Failover";
                path = "//course[cno=CS240]/prereq";
              };
          ]
      with
      | `Applied _ -> protect (fun () -> acked := cno :: !acked)
      | `Rejected (_, msg) -> die "writer %d: %s rejected: %s" w cno msg
      | `Error msg -> die "writer %d: %s gave up: %s" w cno msg
    done;
    Resilient.Router.close router
  in
  let expected = n_writers * per_writer in
  let controller () =
    for k = 1 to n_failovers do
      (* let the swarm make progress between promotions *)
      let gate = k * expected / (n_failovers + 1) in
      while n_acked () < gate do
        Thread.delay 0.005
      done;
      (* promote only a standby that has heard the current epoch — the
         operator's "most-caught-up follower" rule *)
      let _, _, fo = !stand in
      (match fo with
      | Some f ->
          let deadline = Unix.gettimeofday () +. 30. in
          while Follower.epoch f < k - 1 && Unix.gettimeofday () < deadline do
            Thread.delay 0.005
          done;
          if Follower.epoch f < k - 1 then
            die "failover %d: standby never heard epoch %d" k (k - 1)
      | None -> die "failover %d: standby has no follower" k);
      (* the primary dies mid-swarm; acks past the replication boundary
         may be lost, which the audit below tolerates (never duplicates) *)
      let p, srv, _ = !prim in
      Server.stop srv;
      Persist.close p;
      let _, ssrv, _ = !stand in
      let epoch, boundary = Server.promote ssrv in
      if epoch <> k then die "failover %d: promotion yielded epoch %d" k epoch;
      ignore boundary;
      (* the deposed node rejoins as the new standby, repairing any
         diverged suffix against the new primary's boundary *)
      let fresh =
        open_node ~role:`Replica ~dir:!prim_dir ~sock:!prim_sock
          ~follow:(Some !stand_sock)
      in
      prim := !stand;
      stand := fresh;
      let s = !prim_sock in
      prim_sock := !stand_sock;
      stand_sock := s;
      let d = !prim_dir in
      prim_dir := !stand_dir;
      stand_dir := d;
      incr failovers_done
    done
  in
  let cthread = Thread.create controller () in
  let threads = List.init n_writers (fun w -> Thread.create (writer w) ()) in
  List.iter Thread.join threads;
  Thread.join cthread;
  (* fresh post-failover traffic must flow *)
  let router =
    Resilient.Router.create ~timeout:1.0 ~wait_ms:5000 ~failover_timeout:30.
      ~primary:(Resilient.Unix_path !prim_sock)
      [ Resilient.Unix_path !stand_sock ]
  in
  for r = 0 to 4 do
    let cno = Printf.sprintf "FOPOST%d" r in
    match
      Resilient.Router.update router
        [
          Proto.Insert
            {
              etype = "course";
              attr = Registrar.course_attr cno "Failover";
              path = "//course[cno=CS240]/prereq";
            };
        ]
    with
    | `Applied _ -> protect (fun () -> acked := cno :: !acked)
    | `Rejected (_, msg) | `Error msg -> die "post-failover %s: %s" cno msg
  done;
  Resilient.Router.close router;
  (* convergence, then the byte-for-byte audit *)
  let _, psrv, _ = !prim and _, ssrv, sfo = !stand in
  (match sfo with
  | Some f ->
      let deadline = Unix.gettimeofday () +. 60. in
      let target () = Server.applied_seq psrv in
      while Follower.after f < target () && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      if Follower.after f < target () then
        die "standby stuck at %d, primary at %d" (Follower.after f) (target ())
  | None -> die "no standby follower at the end");
  let enc srv =
    let b = Buffer.create 65536 in
    Codec.database b (Server.engine srv).Rxv_core.Engine.db;
    Buffer.contents b
  in
  let bytes_equal = String.equal (enc psrv) (enc ssrv) in
  if not bytes_equal then die "databases diverged after %d failovers" !failovers_done;
  let c = Client.connect !prim_sock in
  let dupes = ref 0 and lost = ref 0 in
  List.iter
    (fun cno ->
      match Client.query c (Printf.sprintf "//course[cno=%s]" cno) with
      | Ok (0, _) -> incr lost (* acked past a replication boundary *)
      | Ok (1, _) -> ()
      | Ok (n, _) ->
          Printf.eprintf "EXACTLY-ONCE VIOLATION: %s appears %d times\n%!" cno n;
          incr dupes
      | Error msg -> die "audit query %s: %s" cno msg)
    !acked;
  Client.close c;
  let cleanup () =
    let close_node (p, srv, f) =
      (match f with Some f -> Follower.stop f | None -> ());
      Server.stop srv;
      Persist.close p
    in
    close_node !stand;
    close_node !prim;
    clean1 ();
    clean2 ()
  in
  cleanup ();
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "failover swarm %s: %d acked inserts from %d writers through %d \
     failover(s) in %.1fs — %d dupes, %d lost at a replication boundary \
     (allowed), byte-for-byte equal: %b\n%!"
    (if !dupes = 0 then "OK" else "FAILED")
    (List.length !acked) n_writers !failovers_done dt !dupes !lost bytes_equal;
  if !dupes > 0 then exit 1

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--failover" then begin
    let n_writers =
      if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4
    in
    let per_writer =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 100
    in
    let n_failovers =
      if Array.length Sys.argv > 4 then int_of_string Sys.argv.(4) else 2
    in
    failover_mode n_writers per_writer n_failovers;
    exit 0
  end;
  if Array.length Sys.argv > 3 && Sys.argv.(1) = "--replicas" then begin
    let psock = Sys.argv.(2) in
    let rsocks =
      List.filter (fun s -> s <> "") (String.split_on_char ',' Sys.argv.(3))
    in
    let n_readers =
      if Array.length Sys.argv > 4 then int_of_string Sys.argv.(4) else 4
    in
    let per_reader =
      if Array.length Sys.argv > 5 then int_of_string Sys.argv.(5) else 200
    in
    replica_mode psock rsocks n_readers per_reader;
    exit 0
  end;
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--chaos" then begin
    let sock = Sys.argv.(2) in
    let n_clients =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 8
    in
    let per_client =
      if Array.length Sys.argv > 4 then int_of_string Sys.argv.(4) else 100
    in
    chaos_mode sock n_clients per_client;
    exit 0
  end;
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--server" then begin
    let sock = Sys.argv.(2) in
    let n_clients =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 8
    in
    let per_client =
      if Array.length Sys.argv > 4 then int_of_string Sys.argv.(4) else 200
    in
    client_mode sock n_clients per_client;
    exit 0
  end;
  let rounds =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 200
  in
  let max_n =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 80
  in
  let t0 = Unix.gettimeofday () in
  let applied = ref 0 and rejected = ref 0 in
  for round = 0 to rounds - 1 do
    let a, r = run_round round max_n in
    applied := !applied + a;
    rejected := !rejected + r;
    if round mod 50 = 49 then
      Printf.printf "  ... %d rounds, %d applied, %d rejected (%.1fs)\n%!"
        (round + 1) !applied !rejected
        (Unix.gettimeofday () -. t0)
  done;
  Printf.printf
    "stress OK: %d rounds, %d operations applied, %d rejected, %.1fs\n%!"
    rounds !applied !rejected
    (Unix.gettimeofday () -. t0)
