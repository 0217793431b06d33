(* Tests for the service tier: wire-protocol round trips, corrupt-frame
   isolation, metrics histograms, group-commit batching with
   backpressure, an end-to-end scripted session over a Unix socket,
   reads answered while the writer holds its lock, a QCheck
   linearizability property (concurrent groups ≡ some sequential
   order), and a mixed read/write soak with a mid-soak crash image. *)

module Value = Rxv_relational.Value
module Database = Rxv_relational.Database
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module XParser = Rxv_xpath.Parser
module Registrar = Rxv_workload.Registrar
module Codec = Rxv_persist.Codec
module Wal = Rxv_persist.Wal
module Persist = Rxv_persist.Persist
module Proto = Rxv_server.Proto
module Metrics = Rxv_server.Metrics
module Batcher = Rxv_server.Batcher
module Dedup = Rxv_server.Dedup
module Server = Rxv_server.Server
module Client = Rxv_server.Client

let check = Alcotest.(check bool)

(* ---- scratch dirs and sockets ---- *)

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
      (Printf.sprintf "rxv-srv-test-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let fresh_sock () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rxv-s%d-%d.sock" (Unix.getpid ()) !counter)

let ins cno title =
  Proto.Insert
    {
      etype = "course";
      attr = Registrar.course_attr cno title;
      path = "//course[cno=CS240]/prereq";
    }

let xins cno title =
  Xupdate.Insert
    {
      etype = "course";
      attr = Registrar.course_attr cno title;
      path = XParser.parse "//course[cno=CS240]/prereq";
    }

(* ---- protocol round trips ---- *)

let sample_stats =
  {
    Proto.st_nodes = 12;
    st_edges = 17;
    st_m_size = 40;
    st_l_size = 12;
    st_occurrences = 19;
    st_generation = 6;
    st_wal_records = Some 3;
    st_health = "ok";
    st_counters =
      [
        ("applied", 5);
        ("requests", 9);
        ("sat_skeleton_hits", 4);
        ("sat_skeleton_misses", 2);
        ("sat_learned_kept", 11);
      ];
    st_gauges = [ ("repl_follower_a_lag", 2); ("repl_head", 7) ];
    st_latencies =
      [
        {
          Metrics.s_kind = "update";
          s_count = 5;
          s_p50_us = 127;
          s_p95_us = 511;
          s_p99_us = 1023;
          s_max_us = 900;
          s_mean_us = 212;
        };
      ];
  }

let all_requests : Proto.request list =
  [
    Proto.Ping;
    Proto.Query "//course[cno=CS320]/takenBy/student";
    Proto.Update
      {
        client = "c12.3.0000ff";
        req_seq = 41;
        epoch = 3;
        policy = `Abort;
        ops =
          [
            Proto.Delete "//student[ssn=S02]";
            Proto.Insert
              {
                etype = "course";
                attr = [| Value.str "CS901"; Value.str "Proofs" |];
                path = "//course[cno=CS240]/prereq";
              };
          ];
      };
    Proto.Update
      { client = ""; req_seq = 0; epoch = 0; policy = `Proceed;
        ops = [ Proto.Delete "//c" ] };
    Proto.Stats;
    Proto.Checkpoint;
    Proto.Shutdown;
    Proto.Repl_hello { follower = "r1"; after = 0; epoch = 0 };
    Proto.Repl_hello { follower = ""; after = 173; epoch = 7 };
    Proto.Repl_pull
      { follower = "r1"; after = 41; max = 512; wait_ms = 200; epoch = 2 };
    Proto.Repl_pull
      { follower = "x"; after = 0; max = 0; wait_ms = 0; epoch = 0 };
    Proto.Query_at
      { path = "//course[cno=CS320]"; min_seq = 9; wait_ms = 250 };
    Proto.Query_at { path = "//c"; min_seq = 0; wait_ms = 0 };
    Proto.Promote;
  ]

let all_responses : Proto.response list =
  [
    Proto.Pong;
    Proto.Selected { count = 4; nodes = [ ("course", 3); ("student", 9) ] };
    Proto.Selected { count = 0; nodes = [] };
    Proto.Applied { seq = 42; reports = 2; delta_ops = 7 };
    Proto.Rejected { index = 1; reason = "side effects at 3 parents" };
    Proto.Overloaded;
    Proto.Stats_reply sample_stats;
    Proto.Stats_reply { sample_stats with Proto.st_wal_records = None };
    Proto.Checkpointed { generation = 2; bytes = 4096 };
    Proto.Bye;
    Proto.Error "no such element type";
    Proto.Unavailable "degraded: wal sync failed";
    Proto.Stats_reply
      { sample_stats with Proto.st_health = "degraded: ckpt.fsync: EIO" };
    Proto.Stats_reply { sample_stats with Proto.st_gauges = [] };
    Proto.Repl_frames
      {
        after = 41;
        head = 44;
        records = [ "\x00rec"; "" ];
        epoch = 2;
        boundary = Some 40;
      };
    Proto.Repl_frames
      { after = 0; head = 0; records = []; epoch = 0; boundary = None };
    Proto.Repl_frames
      { after = 7; head = 7; records = []; epoch = 5; boundary = Some 0 };
    Proto.Repl_reset
      {
        generation = 3;
        base = 120;
        ckpt = Some "\x01img\xFF";
        epoch = 1;
        sessions = Some "\x02sess";
      };
    Proto.Repl_reset
      { generation = 0; base = 0; ckpt = None; epoch = 0; sessions = None };
    Proto.Fenced { epoch = 4; leader = "unix:/tmp/rxv.sock" };
    Proto.Fenced { epoch = 1; leader = "" };
    Proto.Promoted { epoch = 2; seq = 117 };
  ]

let test_proto_roundtrip () =
  List.iter
    (fun r ->
      let r' = Proto.decode_request (Proto.encode_request r) in
      check (Fmt.str "request %a" Proto.pp_request r) true (r = r'))
    all_requests;
  List.iter
    (fun r ->
      let r' = Proto.decode_response (Proto.encode_response r) in
      check (Fmt.str "response %a" Proto.pp_response r) true (r = r'))
    all_responses

let test_proto_rejects_garbage () =
  (match Proto.decode_request "\xFFgarbage" with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "garbage decoded as request");
  (match Proto.decode_response "\x63" with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "bad tag decoded as response");
  (* trailing bytes after a valid message are a protocol error *)
  match Proto.decode_request (Proto.encode_request Proto.Ping ^ "x") with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* every strict prefix of a replication message must be detected as
   damage (Codec.Error), and no byte corruption may escape as any other
   exception — the per-connection isolation guarantee rests on the
   decoder failing only through the channel the handler catches *)
let is_repl_request = function
  | Proto.Repl_hello _ | Proto.Repl_pull _ | Proto.Query_at _ -> true
  | _ -> false

let is_repl_response = function
  | Proto.Repl_frames _ | Proto.Repl_reset _ -> true
  | _ -> false

let test_repl_proto_truncation () =
  List.iter
    (fun r ->
      let s = Proto.encode_request r in
      for i = 0 to String.length s - 1 do
        match Proto.decode_request (String.sub s 0 i) with
        | exception Codec.Error _ -> ()
        | _ ->
            Alcotest.failf "truncated prefix %d/%d of %a decoded" i
              (String.length s) Proto.pp_request r
      done)
    (List.filter is_repl_request all_requests);
  List.iter
    (fun r ->
      let s = Proto.encode_response r in
      for i = 0 to String.length s - 1 do
        match Proto.decode_response (String.sub s 0 i) with
        | exception Codec.Error _ -> ()
        | _ ->
            Alcotest.failf "truncated prefix %d/%d of %a decoded" i
              (String.length s) Proto.pp_response r
      done)
    (List.filter is_repl_response all_responses)

let test_repl_proto_bitflip_safety () =
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80));
    Bytes.to_string b
  in
  List.iter
    (fun r ->
      let s = Proto.encode_request r in
      String.iteri
        (fun i _ ->
          match Proto.decode_request (flip s i) with
          | _ -> ()
          | exception Codec.Error _ -> ())
        s)
    (List.filter is_repl_request all_requests);
  List.iter
    (fun r ->
      let s = Proto.encode_response r in
      String.iteri
        (fun i _ ->
          match Proto.decode_response (flip s i) with
          | _ -> ()
          | exception Codec.Error _ -> ())
        s)
    (List.filter is_repl_response all_responses)

(* ---- metrics ---- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "requests";
  Metrics.add m "requests" 2;
  Metrics.incr m "applied";
  Alcotest.(check int) "summed" 3 (Metrics.counter m "requests");
  Alcotest.(check int) "independent" 1 (Metrics.counter m "applied");
  Alcotest.(check int) "untouched" 0 (Metrics.counter m "nope");
  let snap = Metrics.snapshot m in
  check "sorted counters" true
    (snap.Metrics.counters = [ ("applied", 1); ("requests", 3) ])

let test_metrics_quantiles () =
  let m = Metrics.create () in
  (* 100 observations at ~100 µs, 10 at ~10 ms: p50 lands in the 100 µs
     bucket [64,128), p99 in the 10 ms bucket [8192,16384) *)
  for _ = 1 to 100 do
    Metrics.record m "update" 100e-6
  done;
  for _ = 1 to 10 do
    Metrics.record m "update" 10e-3
  done;
  match (Metrics.snapshot m).Metrics.latencies with
  | [ s ] ->
      Alcotest.(check string) "kind" "update" s.Metrics.s_kind;
      Alcotest.(check int) "count" 110 s.Metrics.s_count;
      Alcotest.(check int) "p50 bucket hi" 127 s.Metrics.s_p50_us;
      Alcotest.(check int) "p99 bucket hi" 10000 s.Metrics.s_p99_us;
      Alcotest.(check int) "max" 10000 s.Metrics.s_max_us;
      check "mean between the modes" true
        (s.Metrics.s_mean_us > 100 && s.Metrics.s_mean_us < 10000)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

(* ---- batcher ---- *)

let test_batcher_commits_in_order () =
  let e = Registrar.engine () in
  let lock = Mutex.create () in
  let b = Batcher.create ~lock e in
  let outcomes =
    List.map
      (fun i ->
        Batcher.submit_wait b ~policy:`Proceed
          [ xins (Printf.sprintf "CS91%d" i) "Batched" ])
      [ 0; 1; 2 ]
  in
  let seqs =
    List.map
      (function
        | `Done (Batcher.Committed { seq; _ }) -> seq
        | `Done (Batcher.Rejected_at (_, rej)) ->
            Alcotest.failf "rejected: %a" Engine.pp_rejection rej
        | `Done (Batcher.Failed m | Batcher.Sync_failed m) ->
            Alcotest.failf "failed: %s" m
        | `Done Batcher.Session_full -> Alcotest.fail "session table full"
        | `Overloaded -> Alcotest.fail "overloaded")
      outcomes
  in
  Alcotest.(check (list int)) "sequential commit order" [ 1; 2; 3 ] seqs;
  Batcher.stop b;
  check "consistent after batched commits" true
    (Engine.check_consistency e = Ok ())

let test_batcher_overload () =
  let e = Registrar.engine () in
  let lock = Mutex.create () in
  let b = Batcher.create ~queue_cap:1 ~batch_cap:1 ~lock e in
  Mutex.lock lock;
  (* job 1: drained by the writer, which then blocks applying it *)
  let j1 =
    match Batcher.submit b ~policy:`Proceed [ xins "CS921" "Stalled" ] with
    | `Job j -> j
    | `Overloaded -> Alcotest.fail "first submit overloaded"
  in
  Thread.delay 0.05 (* let the writer drain job 1 and hit the lock *);
  (* job 2 fills the queue … *)
  let j2 =
    match Batcher.submit b ~policy:`Proceed [ xins "CS922" "Queued" ] with
    | `Job j -> j
    | `Overloaded -> Alcotest.fail "queue should have room"
  in
  (* … so job 3 is backpressure *)
  (match Batcher.submit b ~policy:`Proceed [ xins "CS923" "Too many" ] with
  | `Overloaded -> ()
  | `Job _ -> Alcotest.fail "expected Overloaded on a full queue");
  Mutex.unlock lock;
  (match (Batcher.await j1, Batcher.await j2) with
  | Batcher.Committed _, Batcher.Committed _ -> ()
  | _ -> Alcotest.fail "stalled jobs should commit after release");
  Batcher.stop b;
  check "consistent" true (Engine.check_consistency e = Ok ())

(* a full dedup table refuses new sessions instead of silently evicting
   a live client's entry (which would break its in-flight retries);
   only entries silent past min_age may be reclaimed *)
let test_dedup_admission () =
  let d = Dedup.create ~cap:2 ~min_age:60. () in
  let t0 = 1000. in
  ignore (Dedup.record ~now:t0 d ~client:"a" ~seq:1 ~commit:1 ~reports:1
            ~delta:1);
  ignore (Dedup.record ~now:(t0 +. 30.) d ~client:"b" ~seq:1 ~commit:2
            ~reports:1 ~delta:1);
  check "existing client always admitted" true
    (Dedup.admit ~now:(t0 +. 31.) d ~client:"a" = `Ok);
  check "full of recent entries refuses" true
    (Dedup.admit ~now:(t0 +. 31.) d ~client:"c" = `Full);
  check "refused client applied nothing" true (Dedup.size d = 2);
  (* client a falls silent past min_age: its slot is reclaimable *)
  check "aged-out entry evicted for the newcomer" true
    (Dedup.admit ~now:(t0 +. 61.) d ~client:"c" = `Evicted "a");
  ignore (Dedup.record ~now:(t0 +. 61.) d ~client:"c" ~seq:1 ~commit:3
            ~reports:1 ~delta:1);
  check "b survived, a evicted" true
    (Dedup.check d ~client:"b" ~seq:1 = `Duplicate (2, 1, 1)
    && Dedup.check d ~client:"a" ~seq:1 = `Fresh)

(* one WAL sync per drained batch, not per commit *)
let test_batcher_group_commit_syncs () =
  let e = Registrar.engine () in
  let lock = Mutex.create () in
  let syncs = ref 0 in
  let b =
    Batcher.create ~queue_cap:64 ~batch_cap:64 ~lock
      ~sync:(fun () -> incr syncs)
      e
  in
  (* stall the writer so every job lands in one queue, hence one batch *)
  Mutex.lock lock;
  Thread.delay 0.02;
  let jobs =
    List.init 6 (fun i ->
        match
          Batcher.submit b ~policy:`Proceed
            [ xins (Printf.sprintf "CS93%d" i) "Grouped" ]
        with
        | `Job j -> j
        | `Overloaded -> Alcotest.fail "unexpected overload")
  in
  Mutex.unlock lock;
  List.iter (fun j -> ignore (Batcher.await j)) jobs;
  (* the first job may have been drained alone before we stalled; 6
     commits must cost at most 2 syncs — and strictly fewer than one
     sync per commit *)
  check "syncs amortized" true (!syncs >= 1 && !syncs <= 2);
  Batcher.stop b;
  check "consistent" true (Engine.check_consistency e = Ok ())

(* ---- end-to-end scripted session over a Unix socket ---- *)

let test_server_session () =
  with_dir (fun dir ->
      let sock = fresh_sock () in
      let e = Registrar.engine () in
      let p = Persist.open_dir ~sync:Wal.Always dir in
      let srv = Server.start ~persist:p (Server.Unix_sock sock) e in
      let c = Client.connect sock in
      Client.ping c;
      let before =
        match Client.query c "//course" with
        | Ok (n, _) -> n
        | Error m -> Alcotest.failf "query: %s" m
      in
      check "sample courses visible" true (before > 0);
      (match Client.update c [ ins "CS901" "Proof Theory" ] with
      | `Applied (seq, reports) ->
          Alcotest.(check int) "first commit" 1 seq;
          Alcotest.(check int) "one report" 1 reports
      | r ->
          Alcotest.failf "insert failed: %s"
            (match r with
            | `Rejected (_, m) | `Error m -> m
            | _ -> "overloaded"));
      (match Client.query c "//course" with
      | Ok (n, _) -> Alcotest.(check int) "insert visible" (before + 1) n
      | Error m -> Alcotest.failf "query: %s" m);
      (* an unknown element type is an in-protocol rejection, and the
         connection survives it *)
      (match
         Client.update c
           [ Proto.Insert { etype = "bogus"; attr = [||]; path = "//course" } ]
       with
      | `Rejected _ -> ()
      | `Error _ -> ()
      | _ -> Alcotest.fail "bogus insert should be rejected");
      Client.ping c;
      (* stats carry engine shape and service counters *)
      (match Client.stats c with
      | Ok st ->
          check "nodes reported" true (st.Proto.st_nodes > 0);
          check "wal attached" true (st.Proto.st_wal_records = Some 1);
          check "requests counted" true
            (List.assoc "requests" st.Proto.st_counters >= 4);
          (* the insertion-translator counters ride the generic list;
             the session above applied at least one insertion, so a
             skeleton was built *)
          check "sat skeleton counters present" true
            (List.assoc "sat_skeleton_misses" st.Proto.st_counters >= 1);
          check "update latency histogram present" true
            (List.exists
               (fun s -> s.Metrics.s_kind = "update")
               st.Proto.st_latencies)
      | Error m -> Alcotest.failf "stats: %s" m);
      (match Client.checkpoint c with
      | Ok (gen, bytes) ->
          Alcotest.(check int) "generation bumped" 1 gen;
          check "image written" true (bytes > 0)
      | Error m -> Alcotest.failf "checkpoint: %s" m);
      Client.shutdown c;
      Client.close c;
      Server.wait srv;
      Persist.close p;
      check "engine consistent after session" true
        (Engine.check_consistency e = Ok ());
      (* the durability directory recovers to the same view *)
      let p2 = Persist.open_dir dir in
      match
        Persist.recover p2 (Registrar.atg ()) ~init:Registrar.sample_db
      with
      | Error m -> Alcotest.failf "recovery: %s" m
      | Ok (e', info) ->
          check "recovered from checkpoint" true info.Persist.r_checkpoint;
          check "recovered consistent" true
            (Engine.check_consistency e' = Ok ());
          check "same database" true
            (let enc d =
               let b = Buffer.create 256 in
               Codec.database b d;
               Buffer.contents b
             in
             enc e.Engine.db = enc e'.Engine.db))

(* STATS' st_generation is the commit number the published snapshot
   covers: each committed group moves it by one, and neither a rejected
   group nor a read moves it *)
let test_stats_generation () =
  let sock = fresh_sock () in
  let srv = Server.start (Server.Unix_sock sock) (Registrar.engine ()) in
  let c = Client.connect sock in
  let generation () =
    match Client.stats c with
    | Ok st -> st.Proto.st_generation
    | Error m -> Alcotest.failf "stats: %s" m
  in
  let g0 = generation () in
  List.iter
    (fun cno ->
      match Client.update c [ ins cno "Counted" ] with
      | `Applied _ -> ()
      | _ -> Alcotest.failf "insert %s not applied" cno)
    [ "CS911"; "CS912" ];
  Alcotest.(check int) "two committed groups" (g0 + 2) (generation ());
  (match
     Client.update c
       [ Proto.Insert { etype = "bogus"; attr = [||]; path = "//course" } ]
   with
  | `Applied _ -> Alcotest.fail "bogus insert applied"
  | _ -> ());
  Alcotest.(check int) "a rejected group" (g0 + 2) (generation ());
  (match Client.query c "//course" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "query: %s" m);
  Alcotest.(check int) "a read" (g0 + 2) (generation ());
  Client.shutdown c;
  Client.close c;
  Server.wait srv

(* a corrupted or truncated frame kills one connection, never the server *)
let test_server_survives_corrupt_frame () =
  let sock = fresh_sock () in
  let e = Registrar.engine () in
  let srv = Server.start (Server.Unix_sock sock) e in
  (* raw garbage: not even a plausible frame header *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let garbage = "\xde\xad\xbe\xef\xde\xad\xbe\xef nonsense" in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (* server replies with a best-effort Error, then closes *)
  (match Proto.recv fd with
  | `Msg payload -> (
      match Proto.decode_response payload with
      | Proto.Error _ -> ()
      | r -> Alcotest.failf "expected Error, got %a" Proto.pp_response r)
  | `Eof -> () (* also acceptable: reply raced the close *)
  | `Corrupt m -> Alcotest.failf "client saw corrupt reply: %s" m);
  Unix.close fd;
  (* a frame whose header promises more bytes than ever arrive *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let b = Buffer.create 32 in
  Rxv_persist.Frame.add b (Proto.encode_request Proto.Ping);
  let framed = Buffer.contents b in
  (* truncate mid-body *)
  ignore (Unix.write_substring fd framed 0 (String.length framed - 2));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match Proto.recv fd with
  | `Msg payload -> (
      match Proto.decode_response payload with
      | Proto.Error _ -> ()
      | r -> Alcotest.failf "expected Error, got %a" Proto.pp_response r)
  | `Eof -> ()
  | `Corrupt m -> Alcotest.failf "client saw corrupt reply: %s" m);
  Unix.close fd;
  (* the server is fine: a fresh connection works end to end *)
  let c = Client.connect sock in
  Client.ping c;
  (match Client.update c [ ins "CS902" "Still Alive" ] with
  | `Applied _ -> ()
  | _ -> Alcotest.fail "update after corrupt peer failed");
  Client.shutdown c;
  Client.close c;
  Server.wait srv;
  check "proto errors counted" true
    (Metrics.counter (Server.metrics srv) "proto_errors" >= 2);
  check "consistent" true (Engine.check_consistency e = Ok ())

(* ---- reads never wait for the writer ---- *)

(* queries and stats answer from the published MVCC snapshot and take
   no lock: with the writer's exclusive section held, a query and a
   stats request from another thread must both come back. A deadline
   turns a regression into a failure instead of a hang. *)
let test_reads_do_not_wait_for_writer () =
  let sock = fresh_sock () in
  let e = Registrar.engine () in
  let srv = Server.start (Server.Unix_sock sock) e in
  let c = Client.connect sock in
  let answers = Atomic.make 0 in
  let reader () =
    (match Client.query c "//course" with
    | Ok (n, _) when n > 0 -> Atomic.incr answers
    | _ -> ());
    match Client.stats c with
    | Ok st when st.Proto.st_nodes > 0 -> Atomic.incr answers
    | _ -> ()
  in
  let th, under_lock =
    Server.exclusive srv (fun () ->
        let th = Thread.create reader () in
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Atomic.get answers < 2 && Unix.gettimeofday () < deadline do
          Thread.delay 0.005
        done;
        (th, Atomic.get answers))
  in
  Thread.join th;
  Alcotest.(check int) "query and stats answered under the writer's lock" 2
    under_lock;
  Client.shutdown c;
  Client.close c;
  Server.wait srv

(* ---- linearizability smoke: concurrent groups ≡ some sequential order *)

let group_gen =
  (* a group of 1–3 ops drawn from a small registrar-shaped vocabulary;
     collisions (same cno inserted twice, deleting an absent node) are
     the interesting cases and stay well-typed *)
  QCheck2.Gen.(
    let op =
      oneof
        [
          map
            (fun i ->
              `Ins
                ( Printf.sprintf "CS95%d" (i mod 10),
                  "//course[cno=CS240]/prereq" ))
            (int_bound 100);
          map
            (fun i ->
              `Ins
                ( Printf.sprintf "CS96%d" (i mod 10),
                  "//course[cno=CS650]/prereq" ))
            (int_bound 100);
          map
            (fun i -> `Del (Printf.sprintf "//course[cno=CS95%d]" (i mod 10)))
            (int_bound 100);
          return (`Del "//student[ssn=S02]");
        ]
    in
    list_size (int_range 1 3) op)

let op_to_xupdate = function
  | `Ins (cno, path) ->
      Xupdate.Insert
        {
          etype = "course";
          attr = Registrar.course_attr cno ("T" ^ cno);
          path = XParser.parse path;
        }
  | `Del path -> Xupdate.Delete (XParser.parse path)

let db_bytes (db : Database.t) =
  let b = Buffer.create 1024 in
  Codec.database b db;
  Buffer.contents b

let test_linearizable =
  QCheck2.Test.make ~count:12 ~name:"concurrent groups ≡ some serial order"
    QCheck2.Gen.(tup3 group_gen group_gen group_gen)
    (fun (g1, g2, g3) ->
      let seed = 1234 in
      let e = Registrar.engine ~seed () in
      let lock = Mutex.create () in
      let b = Batcher.create ~lock e in
      let results = Array.make 3 None in
      let submit i g () =
        results.(i) <-
          Some (Batcher.submit_wait b ~policy:`Proceed (List.map op_to_xupdate g))
      in
      let threads =
        List.mapi
          (fun i g -> Thread.create (submit i g) ())
          [ g1; g2; g3 ]
      in
      List.iter Thread.join threads;
      Batcher.stop b;
      (* collect committed groups in the server's serialization order *)
      let groups = [| g1; g2; g3 |] in
      let committed = ref [] in
      Array.iteri
        (fun i r ->
          match r with
          | Some (`Done (Batcher.Committed { seq; _ })) ->
              committed := (seq, groups.(i)) :: !committed
          | _ -> ())
        results;
      let committed = List.sort compare !committed in
      (* oracle: replay exactly that order sequentially on a fresh engine *)
      let e' = Registrar.engine ~seed () in
      List.iter
        (fun (_, g) ->
          ignore
            (Engine.apply_group ~policy:`Proceed e' (List.map op_to_xupdate g)))
        committed;
      if Engine.check_consistency e <> Ok () then
        QCheck2.Test.fail_report "server engine inconsistent";
      if db_bytes e.Engine.db <> db_bytes e'.Engine.db then
        QCheck2.Test.fail_report
          "server state differs from its own serialization order";
      true)

(* ---- mixed read/write soak over the socket, with a crash image ---- *)

let test_soak () =
  with_dir (fun dir ->
      with_dir (fun crash_dir ->
          let sock = fresh_sock () in
          let e = Registrar.engine () in
          let p = Persist.open_dir ~sync:(Wal.EveryN 8) dir in
          let srv =
            Server.start
              ~config:
                { Server.default_config with queue_cap = 256; batch_cap = 16 }
              ~persist:p (Server.Unix_sock sock) e
          in
          let n_writers = 4 and n_readers = 4 and per_writer = 80 in
          let applied = ref 0 and rejected = ref 0 and read_ok = ref 0 in
          let am = Mutex.create () in
          let count r =
            Mutex.lock am;
            (match r with
            | `A -> incr applied
            | `R -> incr rejected
            | `Q -> incr read_ok);
            Mutex.unlock am
          in
          let writers_done = ref 0 in
          let writer w () =
            let c = Client.connect sock in
            for i = 0 to per_writer - 1 do
              let r =
                if i mod 7 = 3 then
                  Client.delete c (Printf.sprintf "//course[cno=W%dC%d]" w (i - 1))
                else
                  Client.update c
                    [
                      Proto.Insert
                        {
                          etype = "course";
                          attr =
                            Registrar.course_attr
                              (Printf.sprintf "W%dC%d" w i)
                              "Soak";
                          path = "//course[cno=CS240]/prereq";
                        };
                    ]
              in
              match r with
              | `Applied _ -> count `A
              | `Rejected _ -> count `R
              | `Overloaded -> count `R
              | `Unavailable m | `Error m -> Alcotest.failf "writer %d: %s" w m
              | `Fenced (e, _) -> Alcotest.failf "writer %d: fenced at %d" w e
            done;
            Client.close c;
            Mutex.lock am;
            incr writers_done;
            Mutex.unlock am
          in
          let reader () =
            let c = Client.connect sock in
            let continue = ref true in
            while !continue do
              (match Client.query c "//course" with
              | Ok (n, _) when n > 0 -> count `Q
              | Ok _ -> count `Q
              | Error m -> Alcotest.failf "reader: %s" m);
              Mutex.lock am;
              if !writers_done = n_writers then continue := false;
              Mutex.unlock am
            done;
            Client.close c
          in
          let threads =
            List.init n_writers (fun w -> Thread.create (writer w) ())
            @ List.init n_readers (fun _ -> Thread.create reader ())
          in
          (* mid-soak crash image: what a kill -9 would leave on disk *)
          Thread.delay 0.15;
          Array.iter
            (fun f ->
              let src = Filename.concat dir f in
              let dst = Filename.concat crash_dir f in
              let ic = open_in_bin src in
              let oc = open_out_bin dst in
              (try
                 let buf = Bytes.create 65536 in
                 let rec copy () =
                   match input ic buf 0 65536 with
                   | 0 -> ()
                   | k ->
                       output oc buf 0 k;
                       copy ()
                 in
                 copy ()
               with End_of_file -> ());
              close_in ic;
              close_out oc)
            (Sys.readdir dir);
          List.iter Thread.join threads;
          let total = !applied + !rejected + !read_ok in
          check "soak volume reached" true (total >= 500);
          check "most writes applied" true (!applied > !rejected);
          check "readers made progress" true (!read_ok > 0);
          (* graceful path *)
          let c = Client.connect sock in
          Client.shutdown c;
          Client.close c;
          Server.wait srv;
          Persist.sync p;
          Persist.close p;
          check "engine consistent after soak" true
            (Engine.check_consistency e = Ok ());
          (* the live directory recovers … *)
          let pl = Persist.open_dir dir in
          (match Persist.recover pl (Registrar.atg ()) ~init:Registrar.sample_db with
          | Error m -> Alcotest.failf "live recovery: %s" m
          | Ok (el, _) ->
              check "live image consistent" true
                (Engine.check_consistency el = Ok ());
              check "live image = server state" true
                (db_bytes el.Engine.db = db_bytes e.Engine.db));
          (* … and so does the torn mid-soak crash image *)
          let pc = Persist.open_dir crash_dir in
          match Persist.recover pc (Registrar.atg ()) ~init:Registrar.sample_db with
          | Error m -> Alcotest.failf "crash recovery: %s" m
          | Ok (ec, _) ->
              check "crash image consistent" true
                (Engine.check_consistency ec = Ok ())))

let tests =
  [
    Alcotest.test_case "proto round trips" `Quick test_proto_roundtrip;
    Alcotest.test_case "proto rejects garbage" `Quick test_proto_rejects_garbage;
    Alcotest.test_case "replication messages reject truncation" `Quick
      test_repl_proto_truncation;
    Alcotest.test_case "replication messages corrupt-safe" `Quick
      test_repl_proto_bitflip_safety;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics quantiles" `Quick test_metrics_quantiles;
    Alcotest.test_case "batcher commits in order" `Quick
      test_batcher_commits_in_order;
    Alcotest.test_case "batcher backpressure" `Quick test_batcher_overload;
    Alcotest.test_case "dedup admission / age-gated eviction" `Quick
      test_dedup_admission;
    Alcotest.test_case "batcher group-commit syncs" `Quick
      test_batcher_group_commit_syncs;
    Alcotest.test_case "scripted session" `Quick test_server_session;
    Alcotest.test_case "STATS generation counts committed groups" `Quick
      test_stats_generation;
    Alcotest.test_case "corrupt frame isolated" `Quick
      test_server_survives_corrupt_frame;
    Alcotest.test_case "reads do not wait for the writer" `Quick
      test_reads_do_not_wait_for_writer;
    QCheck_alcotest.to_alcotest test_linearizable;
    Alcotest.test_case "mixed soak + crash image" `Slow test_soak;
  ]
