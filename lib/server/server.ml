(** Accept loop, per-connection handlers, and request dispatch. *)

module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Parser = Rxv_xpath.Parser
module Dag_eval = Rxv_core.Dag_eval
module Store = Rxv_dag.Store
module Atg = Rxv_atg.Atg
module Value = Rxv_relational.Value
module Persist = Rxv_persist.Persist
module Codec = Rxv_persist.Codec
module Io = Rxv_fault.Io

let src = Logs.Src.create "rxv.server" ~doc:"view-update service"

module Log = (val Logs.src_log src : Logs.LOG)

type address = Unix_sock of string | Tcp of string * int

type role = [ `Primary | `Replica ]

type config = {
  queue_cap : int;
  batch_cap : int;
  max_listed : int;
  probe_interval : float;
  max_sessions : int;
  role : role;
}

let default_config =
  { queue_cap = 128; batch_cap = 64; max_listed = 32; probe_interval = 0.25;
    max_sessions = 1024; role = `Primary }

(* bound on records per Repl_frames reply, whatever the puller asks
   for: keeps one reply's memory and frame size proportionate *)
let max_pull_records = 4096

type health = [ `Ok | `Degraded of string ]

type t = {
  cfg : config;
  eng : Engine.t;
  persist : Persist.t option;
  lock : Mutex.t;  (* the writer's exclusive section over [eng] *)
  mtr : Metrics.t;
  batcher : Batcher.t;
  dedup : Dedup.t;
  addr : address;
  listen_fd : Unix.file_descr;
  stop_rd : Unix.file_descr;  (* self-pipe: wakes the accept select *)
  stop_wr : Unix.file_descr;
  m : Mutex.t;
  sync_m : Mutex.t;
      (* serializes every Persist.sync/checkpoint: the batcher's
         group-commit sync, the degraded-mode durability probe, and
         checkpoint rotation all touch the same WAL writer *)
  mutable health : health;
  mutable last_probe : float;
  mutable role : role;
      (* starts as [cfg.role]; promotion flips a replica to primary,
         and a fenced (deposed) primary demotes itself to replica *)
  mutable epoch_ : int;
      (* highest replication epoch this node has witnessed — stamped
         into every reply that carries one, compared against every
         request that does *)
  mutable leader_hint : string;
      (* best-known primary address for Fenced redirects ("" unknown) *)
  mutable promote_hook : (unit -> unit) option;
      (* runs first in [promote]: stops the follower loop so the
         applied position freezes before the epoch boundary is read *)
  promote_m : Mutex.t;  (* serializes promotions *)
  mutable stopping : bool;
  mutable conns : (int * Unix.file_descr) list;  (* live client fds *)
  mutable handlers : Thread.t list;
  mutable conn_ids : int;
  mutable accept_thread : Thread.t option;
  mutable published : Engine.Snapshot.t;
      (* the latest committed MVCC snapshot; replaced by the batcher at
         the end of every write batch (a single pointer store), read by
         query/stats handlers without taking [lock] *)
  mutable applied_seq : int;
      (* commit number the published snapshot covers: the read gate for
         Query_at. On a primary the batcher advances it at publish; on a
         replica the follower loop does, through publish_applied. *)
  feed : Repl_feed.t option;
      (* the replication feed — present iff the server persists (the
         WAL is the stream's unit of truth; a volatile server has
         nothing durable to replicate) *)
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let engine t = t.eng
let metrics t = t.mtr
let address t = t.addr
let batcher t = t.batcher
let dedup t = t.dedup
let feed t = t.feed
let applied_seq t = t.applied_seq

let role t =
  Mutex.lock t.m;
  let r = t.role in
  Mutex.unlock t.m;
  r

let epoch t =
  Mutex.lock t.m;
  let e = t.epoch_ in
  Mutex.unlock t.m;
  e

let note_epoch t e =
  Mutex.lock t.m;
  if e > t.epoch_ then t.epoch_ <- e;
  Mutex.unlock t.m

let leader_hint t =
  Mutex.lock t.m;
  let l = t.leader_hint in
  Mutex.unlock t.m;
  l

let set_leader_hint t hint =
  Mutex.lock t.m;
  t.leader_hint <- hint;
  Mutex.unlock t.m

let set_promote_hook t hook = t.promote_hook <- Some hook

(* the follower's apply path: run [f] holding the engine's exclusive
   side — exactly the section the batcher applies batches under *)
let exclusive t f = with_lock t.lock f

(* the follower's publish path: freeze the state just applied and open
   the read gate up to [seq] — the replica-side mirror of the batcher's
   per-batch publish. Call outside the exclusive section, with no frame
   open. *)
let publish_applied t ~seq =
  t.published <- Engine.Snapshot.capture t.eng;
  t.applied_seq <- seq;
  Metrics.incr t.mtr "snapshots_published"

let health t =
  Mutex.lock t.m;
  let h = t.health in
  Mutex.unlock t.m;
  h

let health_string t =
  match health t with `Ok -> "ok" | `Degraded r -> "degraded: " ^ r

(* ---- degraded read-only mode ---- *)

let degrade t reason =
  Mutex.lock t.m;
  let first = t.health = `Ok in
  if first then t.health <- `Degraded reason;
  Mutex.unlock t.m;
  if first then begin
    Metrics.incr t.mtr "degraded_entries";
    Log.err (fun m -> m "durability failure, entering read-only mode: %s" reason)
  end

(* While degraded, each write attempt may (rate-limited by
   [probe_interval]) probe the device with a real WAL sync. The probe
   runs under the exclusive lock AND the sync mutex so it cannot race
   the batcher's appends or syncs. A success both proves the device
   works again and makes every previously-buffered record durable — so
   leaving degraded mode is itself the repair. *)
let check_health t =
  match health t with
  | `Ok -> `Ok
  | `Degraded reason -> (
      match t.persist with
      | None -> `Degraded reason
      | Some p ->
          let now = Unix.gettimeofday () in
          Mutex.lock t.m;
          let due = now -. t.last_probe >= t.cfg.probe_interval in
          if due then t.last_probe <- now;
          Mutex.unlock t.m;
          if not due then `Degraded reason
          else begin
            Metrics.incr t.mtr "health_probes";
            match
              with_lock t.lock (fun () ->
                  with_lock t.sync_m (fun () -> Persist.sync p))
            with
            | () ->
                Mutex.lock t.m;
                t.health <- `Ok;
                Mutex.unlock t.m;
                Option.iter Repl_feed.durable t.feed;
                Metrics.incr t.mtr "degraded_exits";
                Log.info (fun m -> m "durability restored, accepting writes");
                `Ok
            | exception _ -> `Degraded reason
          end)

(* ---- connection bookkeeping ---- *)

let register_conn t fd =
  Mutex.lock t.m;
  t.conn_ids <- t.conn_ids + 1;
  let id = t.conn_ids in
  t.conns <- (id, fd) :: t.conns;
  Mutex.unlock t.m;
  id

let forget_conn t id =
  Mutex.lock t.m;
  t.conns <- List.filter (fun (i, _) -> i <> id) t.conns;
  Mutex.unlock t.m

(* ---- epoch fencing ---- *)

(* A request carrying a {e higher} epoch than ours proves a newer
   primary exists: adopt the epoch, and if this node still believes it
   is the primary it has been deposed — demote on the spot, {e before}
   the refusal goes out, so a zombie primary can never again acknowledge
   a write or feed a follower. Applies to every epoch-stamped request:
   the server cannot serve anything meaningful at an epoch it has never
   witnessed. *)
let fence_ahead t ~epoch:req_epoch =
  Mutex.lock t.m;
  let verdict =
    if req_epoch > t.epoch_ then begin
      t.epoch_ <- req_epoch;
      if t.role = `Primary then begin
        t.role <- `Replica;
        `Deposed
      end
      else `Refuse
    end
    else `Pass
  in
  let e = t.epoch_ and leader = t.leader_hint in
  Mutex.unlock t.m;
  match verdict with
  | `Pass -> None
  | `Deposed ->
      Metrics.incr t.mtr "demotions";
      Log.warn (fun m ->
          m "deposed: request carried epoch %d, ours was stale; demoting to \
             read-only replica" req_epoch);
      Some (Proto.Fenced { epoch = e; leader })
  | `Refuse ->
      Metrics.incr t.mtr "fenced";
      Some (Proto.Fenced { epoch = e; leader })

(* A {e write} carrying a lower nonzero epoch comes through a client
   fenced off by a promotion we already witnessed: refuse definitively
   (the client must learn the new epoch and primary first). Pulls are
   deliberately NOT fenced this way — a stale-epoch follower is exactly
   the one that needs to catch up, and it gets its divergence boundary
   alongside the frames instead. [epoch = 0] opts out entirely. *)
let fence_stale t ~epoch:req_epoch =
  Mutex.lock t.m;
  let stale = req_epoch > 0 && req_epoch < t.epoch_ in
  let e = t.epoch_ and leader = t.leader_hint in
  Mutex.unlock t.m;
  if stale then begin
    Metrics.incr t.mtr "fenced";
    Some (Proto.Fenced { epoch = e; leader })
  end
  else None

(* ---- request dispatch ---- *)

let parse_path src =
  try Ok (Parser.parse src)
  with Parser.Parse_error (msg, pos) ->
    Result.error (Printf.sprintf "XPath parse error at offset %d: %s" pos msg)

let op_to_xupdate (op : Proto.op) : (Xupdate.t, string) result =
  match op with
  | Proto.Delete src -> Result.map (fun p -> Xupdate.Delete p) (parse_path src)
  | Proto.Insert { etype; attr; path } ->
      Result.map
        (fun p -> Xupdate.Insert { etype; attr; path = p })
        (parse_path path)

let rec ops_to_xupdates = function
  | [] -> Ok []
  | op :: rest ->
      Result.bind (op_to_xupdate op) (fun u ->
          Result.map (fun us -> u :: us) (ops_to_xupdates rest))

let selected_of t (r : Dag_eval.result) =
  let nodes =
    List.filteri (fun i _ -> i < t.cfg.max_listed) r.Dag_eval.selected_types
  in
  Proto.Selected { count = List.length r.Dag_eval.selected; nodes }

let handle_query t src =
  match parse_path src with
  | Error msg -> Proto.Error msg
  | Ok path ->
      (* lock-free: answer from the last published snapshot — never
         blocks behind the batcher's exclusive section *)
      Metrics.incr t.mtr "snapshot_queries";
      selected_of t (Engine.Snapshot.query t.published path)

let handle_update t ~client ~req_seq ~epoch:req_epoch ~policy ops =
  match
    match fence_ahead t ~epoch:req_epoch with
    | Some _ as r -> r
    | None -> fence_stale t ~epoch:req_epoch
  with
  | Some refusal -> refusal
  | None ->
  if role t = `Replica then begin
    (* a definitive refusal, not a retryable Unavailable: retrying here
       can never succeed — the client must route the write to the
       primary (the reply names it when known) *)
    Metrics.incr t.mtr "fenced";
    Proto.Fenced { epoch = epoch t; leader = leader_hint t }
  end
  else
  match check_health t with
  | `Degraded reason ->
      Metrics.incr t.mtr "unavailable";
      Proto.Unavailable reason
  | `Ok -> (
      match ops_to_xupdates ops with
      | Error msg -> Proto.Error msg
      | Ok [] -> Proto.Error "empty update group"
      | Ok us -> (
          let origin = if client = "" then None else Some (client, req_seq) in
          match Batcher.submit_wait ?origin t.batcher ~policy us with
          | `Overloaded -> Proto.Overloaded
          | `Done (Batcher.Committed { seq; reports; delta_ops }) ->
              Proto.Applied { seq; reports; delta_ops }
          | `Done (Batcher.Rejected_at (i, rej)) ->
              Proto.Rejected
                { index = i; reason = Fmt.str "%a" Engine.pp_rejection rej }
          | `Done (Batcher.Failed msg) -> Proto.Error msg
          | `Done Batcher.Session_full ->
              (* dedup table full of recently-active clients: refuse the
                 new session loudly rather than evict a live one *)
              Proto.Overloaded
          | `Done (Batcher.Sync_failed msg) ->
              (* on_io_error already degraded the server; tell the client
                 the truth: not acknowledged, safe to retry *)
              Metrics.incr t.mtr "unavailable";
              Proto.Unavailable msg))

(* refresh the replication gauges just before a stats snapshot: the
   stream positions and per-follower lag/connection state, next to the
   latency histograms (ROADMAP: observable replication). Follower-side
   gauges (repl_after, repl_lag, …) are set by the follower loop. *)
let refresh_repl_gauges t =
  Metrics.set_gauge t.mtr "epoch" (epoch t);
  Metrics.set_gauge t.mtr "role"
    (match role t with `Primary -> 1 | `Replica -> 0);
  match t.feed with
  | None -> ()
  | Some feed ->
      Metrics.set_gauge t.mtr "repl_seq" (Repl_feed.seq feed);
      Metrics.set_gauge t.mtr "repl_head" (Repl_feed.head feed);
      List.iter
        (fun fs ->
          let g suffix v =
            Metrics.set_gauge t.mtr
              ("repl_follower_" ^ fs.Repl_feed.fs_name ^ "_" ^ suffix)
              v
          in
          g "after" fs.Repl_feed.fs_after;
          g "epoch" fs.Repl_feed.fs_epoch;
          g "lag" fs.Repl_feed.fs_lag;
          g "connected" (if fs.Repl_feed.fs_connected then 1 else 0);
          g "resets" fs.Repl_feed.fs_resets)
        (Repl_feed.followers feed)

(* lock-free: structural fields describe the published snapshot *)
let handle_stats t =
  let s = t.published in
  let st = Engine.Snapshot.stats s in
  Metrics.incr t.mtr "snapshot_stats";
  refresh_repl_gauges t;
  let snap = Metrics.snapshot t.mtr in
  Proto.Stats_reply
    {
      Proto.st_nodes = st.Engine.n_nodes;
      st_edges = st.Engine.n_edges;
      st_m_size = st.Engine.m_size;
      st_l_size = st.Engine.l_size;
      st_occurrences = st.Engine.occurrences;
      st_generation = t.applied_seq;
      st_wal_records = st.Engine.wal_records;
      st_health = health_string t;
      (* the evaluation and read-path counters ride in the generic
         counter list: no wire-format change, old clients simply show
         extra rows. The read counters are atomics, read live. *)
      st_counters =
        snap.Metrics.counters
        @ [
            ("cache_hits", st.Engine.cache_hits);
            ("cache_misses", st.Engine.cache_misses);
            ("cache_partials", st.Engine.cache_partials);
            ("live_reads", Atomic.get t.eng.Engine.live_reads);
            ("snapshot_reads", Atomic.get t.eng.Engine.snapshot_reads);
            ("sat_skeleton_hits", st.Engine.sat_skeleton_hits);
            ("sat_skeleton_misses", st.Engine.sat_skeleton_misses);
            ("sat_learned_kept", st.Engine.sat_learned_kept);
          ];
      st_gauges = snap.Metrics.gauges;
      st_latencies = snap.Metrics.latencies;
    }

let handle_checkpoint t =
  match t.persist with
  | None -> Proto.Error "server has no durability directory"
  | Some p -> (
      match
        with_lock t.lock (fun () ->
            with_lock t.sync_m (fun () ->
                (* the dedup snapshot and commit counter must be read
                   under the same exclusive section as the image: a batch
                   committed between snapshot and checkpoint would be in
                   the image but missing from the new WAL's sessions
                   record, and its origin dies with the rotated-away old
                   generation — a recovered retry would re-apply it *)
                let sessions =
                  (* on a replica the batcher's counter is frozen at its
                     recovery value; the follower loop advances
                     [applied_seq] instead — take whichever is ahead *)
                  ( Dedup.snapshot t.dedup,
                    Stdlib.max (Batcher.seq t.batcher) t.applied_seq )
                in
                Persist.checkpoint ~sessions p t.eng))
      with
      | bytes ->
          Proto.Checkpointed { generation = Persist.generation p; bytes }
      | exception Unix.Unix_error (e, fn, arg) ->
          let msg = Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e) in
          degrade t ("checkpoint failed: " ^ msg);
          Proto.Error ("checkpoint failed: " ^ msg)
      | exception Sys_error msg ->
          degrade t ("checkpoint failed: " ^ msg);
          Proto.Error ("checkpoint failed: " ^ msg))

(* ---- replication stream (primary side) ---- *)

(* ship the current checkpoint image. Under the sync mutex: checkpoint
   rotation (which deletes superseded images) holds it too, so the file
   we read is never unlinked mid-read. *)
let reset_reply t p =
  with_lock t.sync_m (fun () ->
      Metrics.incr t.mtr "repl_resets_served";
      let epoch = epoch t in
      match Persist.checkpoint_blob p with
      | Some (generation, base, bytes) ->
          (* ship the dedup table alongside the image: the recovered
             session set references commits the image already covers, so
             a follower promoted later still answers retries of requests
             acknowledged before this checkpoint *)
          let sessions =
            Some
              (Persist.encode_sessions_record
                 ~last_commit:(Persist.recovered_base p)
                 (Persist.recovered_sessions p))
          in
          Proto.Repl_reset
            { generation; base; ckpt = Some bytes; epoch; sessions }
      | None ->
          (* generation 0: no image exists — the follower re-initializes
             from the deterministic initial publication and replays from
             commit 0 *)
          Proto.Repl_reset
            { generation = 0; base = 0; ckpt = None; epoch; sessions = None }
      | exception (Sys_error msg | Failure msg) ->
          Proto.Error ("checkpoint unreadable: " ^ msg))

let handle_pull t ~follower ~after ~epoch:req_epoch ~max:max_n ~wait_ms =
  match fence_ahead t ~epoch:req_epoch with
  | Some refusal -> refusal
  | None -> (
      match (t.feed, t.persist) with
      | None, _ | _, None ->
          Proto.Error
            "replication unavailable: server has no durability directory"
      | Some feed, Some p -> (
          let my_epoch = epoch t in
          (* a stale-epoch puller gets its divergence boundary alongside
             the frames: the last commit its history provably shares
             with ours — it must repair before applying anything *)
          let boundary =
            if req_epoch >= my_epoch then None
            else Persist.boundary_for p ~for_epoch:req_epoch
          in
          let frames ~head records =
            Proto.Repl_frames
              { after; head; records; epoch = my_epoch; boundary }
          in
          let max_n = min (max 0 max_n) max_pull_records in
          match
            Repl_feed.pull ~epoch:req_epoch feed ~follower ~after ~max:max_n
              ~wait_ms
          with
          | `Frames (head, records) ->
              Metrics.add t.mtr "repl_records_streamed" (List.length records);
              frames ~head records
          | `Reset -> reset_reply t p
          | `Disk n -> (
              match Persist.read_group_tail p ~after ~max:n with
              | Ok records ->
                  Metrics.add t.mtr "repl_records_streamed"
                    (List.length records);
                  Metrics.incr t.mtr "repl_disk_reads";
                  frames ~head:(Repl_feed.head feed) records
              | Error (`Reset _) ->
                  (* rotation raced the pull; the checkpoint is newer
                     anyway *)
                  reset_reply t p)))

(* bounded-staleness read: wait (poll, like the feed's long-poll) until
   the published snapshot covers [min_seq], then answer from it *)
let handle_query_at t ~path ~min_seq ~wait_ms =
  let deadline = Unix.gettimeofday () +. (float_of_int wait_ms /. 1000.) in
  let rec await () =
    if t.applied_seq >= min_seq then handle_query t path
    else begin
      let stop = Mutex.lock t.m; let s = t.stopping in Mutex.unlock t.m; s in
      if stop || Unix.gettimeofday () >= deadline then begin
        Metrics.incr t.mtr "stale_read_redirects";
        Proto.Unavailable
          (Printf.sprintf "replica behind: have commit %d, need %d"
             t.applied_seq min_seq)
      end
      else begin
        Thread.delay 0.002;
        await ()
      end
    end
  in
  await ()

(* make everything appended so far durable and advance the feed's
   watermark — the batcher's per-batch sync, callable by the durable
   follower loop after each raw-appended batch *)
let sync_persist t =
  match t.persist with
  | None -> ()
  | Some p ->
      with_lock t.sync_m (fun () -> Persist.sync p);
      Metrics.incr t.mtr "wal_syncs";
      Option.iter Repl_feed.durable t.feed

(* ---- failover: promotion ---- *)

let promote t =
  with_lock t.promote_m (fun () ->
      if role t = `Primary then ((* idempotent *) epoch t, Batcher.seq t.batcher)
      else begin
        (* 1. stop applying replicated records: the hook joins the
           follower loop, freezing [applied_seq] as the last commit of
           the old epoch *)
        (match t.promote_hook with Some h -> h () | None -> ());
        let boundary = t.applied_seq in
        Mutex.lock t.m;
        t.epoch_ <- t.epoch_ + 1;
        let new_epoch = t.epoch_ in
        Mutex.unlock t.m;
        (* 2. durably record the transition BEFORE the first write of
           the new epoch can be accepted: a crash right after recovers a
           node that still knows it owns [new_epoch], and a deposed
           ex-primary rejoining later finds the truncation boundary *)
        (match t.persist with
        | Some p ->
            with_lock t.sync_m (fun () ->
                Persist.append_epoch p ~epoch:new_epoch ~boundary;
                (* a follower runs without the engine WAL hook (it logs
                   the primary's bytes verbatim instead); from here on
                   this node's own commits must be logged *)
                Persist.attach ~deferred_sync:true p t.eng)
        | None -> ());
        (* 3. continue the replicated commit numbering *)
        Batcher.set_seq t.batcher boundary;
        Mutex.lock t.m;
        t.role <- `Primary;
        t.leader_hint <- "";
        Mutex.unlock t.m;
        Metrics.incr t.mtr "promotions";
        Log.info (fun m ->
            m "promoted to primary: epoch %d, first commit will be %d"
              new_epoch (boundary + 1));
        (new_epoch, boundary)
      end)

let kind_of_request = function
  | Proto.Ping -> "ping"
  | Proto.Query _ -> "query"
  | Proto.Update _ -> "update"
  | Proto.Stats -> "stats"
  | Proto.Checkpoint -> "checkpoint"
  | Proto.Shutdown -> "shutdown"
  | Proto.Repl_hello _ -> "repl_hello"
  | Proto.Repl_pull _ -> "repl_pull"
  | Proto.Query_at _ -> "query_at"
  | Proto.Promote -> "promote"

(* serve one connection until EOF, corruption, socket death, or
   shutdown. Any I/O failure here — EPIPE from a vanished peer,
   ECONNRESET, an injected EIO — costs exactly this connection. *)
let handler t fd conn_id =
  let stop_conn = ref false in
  let conn_dead reason =
    Metrics.incr t.mtr "conn_io_errors";
    Log.info (fun m -> m "conn %d: %s" conn_id reason);
    stop_conn := true
  in
  while not !stop_conn do
    match Proto.recv ~fp:"srv.read" fd with
    | exception Unix.Unix_error (e, _, _) ->
        conn_dead ("read failed: " ^ Unix.error_message e)
    | `Eof -> stop_conn := true
    | `Corrupt reason ->
        (* transport-level damage: this stream has no recoverable
           framing left — report (best-effort) and drop the connection;
           the server and every other connection are unaffected *)
        Metrics.incr t.mtr "proto_errors";
        Log.info (fun m -> m "conn %d: corrupt frame: %s" conn_id reason);
        (try Proto.send fd (Proto.encode_response (Proto.Error reason))
         with Unix.Unix_error _ -> ());
        stop_conn := true
    | `Msg payload -> (
        match Proto.decode_request payload with
        | exception Codec.Error reason ->
            (* framed correctly but not a request we understand: same
               clean per-connection failure *)
            Metrics.incr t.mtr "proto_errors";
            Log.info (fun m -> m "conn %d: bad request: %s" conn_id reason);
            (try Proto.send fd (Proto.encode_response (Proto.Error reason))
             with Unix.Unix_error _ -> ());
            stop_conn := true
        | req ->
            Metrics.incr t.mtr "requests";
            let t0 = Unix.gettimeofday () in
            let resp =
              match req with
              | Proto.Ping -> Proto.Pong
              | Proto.Query src -> handle_query t src
              | Proto.Update { client; req_seq; epoch; policy; ops } ->
                  handle_update t ~client ~req_seq ~epoch ~policy ops
              | Proto.Stats -> handle_stats t
              | Proto.Checkpoint -> handle_checkpoint t
              | Proto.Shutdown -> Proto.Bye
              | Proto.Repl_hello { follower; after; epoch } ->
                  (* registration + head probe: a zero-record pull *)
                  handle_pull t ~follower ~after ~epoch ~max:0 ~wait_ms:0
              | Proto.Repl_pull { follower; after; max; wait_ms; epoch } ->
                  handle_pull t ~follower ~after ~epoch ~max ~wait_ms
              | Proto.Query_at { path; min_seq; wait_ms } ->
                  handle_query_at t ~path ~min_seq ~wait_ms
              | Proto.Promote ->
                  let epoch, seq = promote t in
                  Proto.Promoted { epoch; seq }
            in
            Metrics.record t.mtr (kind_of_request req)
              (Unix.gettimeofday () -. t0);
            (try Proto.send ~fp:"srv.write" fd (Proto.encode_response resp)
             with Unix.Unix_error (e, _, _) ->
               conn_dead ("write failed: " ^ Unix.error_message e));
            if req = Proto.Shutdown then begin
              stop_conn := true;
              (* wake the accept loop; the caller of [wait] finishes the
                 teardown — this thread must not join itself *)
              Mutex.lock t.m;
              t.stopping <- true;
              Mutex.unlock t.m;
              ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1)
            end)
  done;
  forget_conn t conn_id;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- accept loop ---- *)

let accept_loop t =
  let rec loop () =
    let stop_now = Mutex.lock t.m; let s = t.stopping in Mutex.unlock t.m; s in
    if not stop_now then begin
      match Unix.select [ t.listen_fd; t.stop_rd ] [] [] (-1.0) with
      | readable, _, _ ->
          if List.mem t.stop_rd readable then () (* stop requested *)
          else if List.mem t.listen_fd readable then begin
            match
              Io.hit "srv.accept";
              Unix.accept t.listen_fd
            with
            | fd, _ ->
                Metrics.incr t.mtr "connections";
                let id = register_conn t fd in
                let th = Thread.create (fun () -> handler t fd id) () in
                Mutex.lock t.m;
                t.handlers <- th :: t.handlers;
                Mutex.unlock t.m;
                loop ()
            | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _)
              ->
                loop ()
            | exception Unix.Unix_error (e, _, _) ->
                (* EMFILE, ENFILE, injected EIO, …: losing one accept
                   must not kill the listener — note it and go on *)
                Metrics.incr t.mtr "accept_errors";
                Log.warn (fun m -> m "accept: %s" (Unix.error_message e));
                Thread.delay 0.01;
                loop ()
          end
          else loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ()

(* ---- lifecycle ---- *)

let bind_listen = function
  | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let addr = Unix.inet_addr_of_string host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

let start ?(config = default_config) ?persist addr eng =
  (* a peer that vanishes mid-reply must cost one connection, not the
     process: writes to a closed socket should fail with EPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = bind_listen addr in
  let stop_rd, stop_wr = Unix.pipe () in
  let lock = Mutex.create () in
  let mtr = Metrics.create () in
  let sync_m = Mutex.create () in
  (match persist with
  | Some p when config.role = `Primary ->
      Persist.attach ~deferred_sync:true p eng
  | Some _ ->
      (* a durable replica logs the primary's records verbatim
         (Persist.append_raw) through its follower loop; the engine hook
         would re-encode them with local stamps, so it stays detached
         until promotion *)
      ()
  | None -> ());
  (* the replication feed shadows the WAL: the persist tap appends each
     committed record (inside the batcher's exclusive section, so in
     commit order), and every successful sync advances the durable
     watermark pullers are allowed to see *)
  let feed =
    match persist with
    | Some p ->
        let f =
          Repl_feed.create ~generation:(Persist.generation p)
            ~base:(Persist.recovered_base p)
            ~last:(Persist.recovered_last_commit p) ()
        in
        Persist.set_tap p
          (Some
             {
               Persist.on_group = Repl_feed.append f;
               on_rotate =
                 (fun ~generation ~base -> Repl_feed.rotate f ~generation ~base);
               on_reset =
                 (fun ~generation ~base -> Repl_feed.reset f ~generation ~base);
             });
        Some f
    | None -> None
  in
  let sync =
    match persist with
    | Some p ->
        fun () ->
          with_lock sync_m (fun () -> Persist.sync p);
          Metrics.incr mtr "wal_syncs";
          Option.iter Repl_feed.durable feed
    | None -> fun () -> ()
  in
  (* the server's dedup table and commit counter continue where the WAL
     left off: a client retrying across our crash gets its original
     answer, not a second application *)
  let dedup = Dedup.create ~cap:config.max_sessions () in
  let initial_seq =
    match persist with
    | Some p ->
        Dedup.load dedup (Persist.recovered_sessions p);
        Persist.recovered_last_commit p
    | None -> 0
  in
  let origin_hook =
    match persist with Some p -> Persist.set_origin p | None -> fun _ -> ()
  in
  (* the batcher reports durability failures and publishes snapshots
     before [t] exists *)
  let degrade_cell = ref (fun (_ : string) -> ()) in
  let publish_cell = ref (fun () -> ()) in
  let batcher =
    Batcher.create ~queue_cap:config.queue_cap ~batch_cap:config.batch_cap
      ~lock ~metrics:mtr ~sync ~dedup ~origin_hook
      ~on_io_error:(fun msg -> !degrade_cell msg)
      ~publish:(fun () -> !publish_cell ())
      ~initial_seq eng
  in
  let t =
    {
      cfg = config;
      eng;
      persist;
      lock;
      mtr;
      batcher;
      dedup;
      addr;
      listen_fd;
      stop_rd;
      stop_wr;
      m = Mutex.create ();
      sync_m;
      health = `Ok;
      last_probe = 0.;
      role = config.role;
      epoch_ = (match persist with Some p -> Persist.epoch p | None -> 0);
      leader_hint = "";
      promote_hook = None;
      promote_m = Mutex.create ();
      stopping = false;
      conns = [];
      handlers = [];
      conn_ids = 0;
      accept_thread = None;
      published = Engine.Snapshot.capture eng;
      applied_seq = initial_seq;
      feed;
    }
  in
  degrade_cell := degrade t;
  publish_cell :=
    (fun () ->
      t.published <- Engine.Snapshot.capture eng;
      (* runs inside the batch's exclusive section: the batcher's seq is
         exactly the last commit the fresh snapshot covers *)
      t.applied_seq <- Batcher.seq t.batcher;
      Metrics.incr mtr "snapshots_published");
  t.accept_thread <- Some (Thread.create accept_loop t);
  Log.info (fun m ->
      m "serving %s"
        (match addr with
        | Unix_sock p -> "unix:" ^ p
        | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p));
  t

let initiate_stop t =
  Mutex.lock t.m;
  let first = not t.stopping in
  t.stopping <- true;
  Mutex.unlock t.m;
  if first then ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1)

let wait t =
  (match t.accept_thread with
  | Some th ->
      Thread.join th;
      t.accept_thread <- None
  | None -> ());
  (* unpark handlers long-polling the feed or a Query_at gate *)
  Option.iter Repl_feed.stop t.feed;
  (* wake handlers blocked in read: shutdown (not close) interrupts a
     blocked reader with EOF on every platform we target *)
  Mutex.lock t.m;
  let conns = t.conns and handlers = t.handlers in
  t.handlers <- [];
  Mutex.unlock t.m;
  List.iter
    (fun (_, fd) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join handlers;
  Batcher.stop t.batcher;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_wr with Unix.Unix_error _ -> ());
  (match t.addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Log.info (fun m -> m "server stopped (%d commits)" (Batcher.seq t.batcher))

let stop t =
  initiate_stop t;
  wait t
