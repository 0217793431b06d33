(** Single-writer group-commit loop over a bounded job queue. *)

module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Persist = Rxv_persist.Persist
module Io = Rxv_fault.Io

type outcome =
  | Committed of { seq : int; reports : int; delta_ops : int }
  | Rejected_at of int * Engine.rejection
  | Failed of string
  | Sync_failed of string
  | Session_full

type job = {
  j_ops : Xupdate.t list;
  j_policy : Engine.policy;
  j_origin : (string * int) option;
  j_m : Mutex.t;
  j_c : Condition.t;
  mutable j_result : outcome option;
}

type t = {
  engine : Engine.t;
  lock : Mutex.t;  (* the exclusive section, shared with the server *)
  metrics : Metrics.t option;
  sync : unit -> unit;
  dedup : Dedup.t option;
  origin_hook : Persist.origin option -> unit;
  on_io_error : string -> unit;
  publish : unit -> unit;
      (* fired inside the exclusive section after each batch is applied,
         while no transaction frame is open — the server's hook for
         capturing and publishing a fresh MVCC snapshot *)
  queue_cap : int;
  batch_cap : int;
  q : job Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable writer : Thread.t option;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let bump t name = match t.metrics with Some m -> Metrics.incr m name | None -> ()
let bump_n t name n =
  match t.metrics with Some m -> Metrics.add m name n | None -> ()

let fulfill job outcome =
  Mutex.lock job.j_m;
  job.j_result <- Some outcome;
  Condition.broadcast job.j_c;
  Mutex.unlock job.j_m

let await job =
  Mutex.lock job.j_m;
  while job.j_result = None do
    Condition.wait job.j_c job.j_m
  done;
  let r = Option.get job.j_result in
  Mutex.unlock job.j_m;
  r

let io_msg e fn arg = Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)

(* apply one fresh (non-duplicate) job's group; write lock held *)
let really_apply t job =
  (* stage provenance so the WAL record carries it — it must be set
     before the apply, because the engine logs inside the commit *)
  (match job.j_origin with
  | Some (client, seq) ->
      t.origin_hook
        (Some
           { Persist.o_client = client; o_seq = seq; o_commit = t.seq + 1;
             o_reports = List.length job.j_ops })
  | None -> ());
  let outcome =
    match Engine.apply_group ~policy:job.j_policy t.engine job.j_ops with
    | Ok reports ->
        t.seq <- t.seq + 1;
        bump t "applied";
        let reports_n = List.length reports in
        let delta_ops =
          List.fold_left
            (fun acc (r : Engine.report) -> acc + List.length r.Engine.delta_r)
            0 reports
        in
        (match (job.j_origin, t.dedup) with
        | Some (client, seq), Some d ->
            if
              Dedup.record d ~client ~seq ~commit:t.seq ~reports:reports_n
                ~delta:delta_ops
            then bump t "dedup_evictions"
        | _ -> ());
        Committed { seq = t.seq; reports = reports_n; delta_ops }
    | Error (i, rej) ->
        bump t "rejected";
        Rejected_at (i, rej)
    | exception Unix.Unix_error (e, fn, arg) ->
        (* an I/O failure inside the commit (WAL append): the engine
           aborted the group, nothing was applied — retryable *)
        bump t "apply_io_errors";
        let msg = io_msg e fn arg in
        t.on_io_error msg;
        Sync_failed msg
    | exception exn ->
        bump t "apply_errors";
        Failed (Printexc.to_string exn)
  in
  (* whatever happened, never let a staged origin leak into a later,
     unrelated record (e.g. when the group was rejected and appended no
     WAL record) *)
  t.origin_hook None;
  outcome

(* apply one job's group atomically; called with the write lock held.

   Duplicates are resolved HERE, not in the connection handler, on
   purpose: the cached answer is fulfilled only after this batch's sync,
   and batches sync in order, so by then the original's WAL record —
   appended in this or an earlier batch — is covered by a successful
   fsync. Answering from the handler could acknowledge a commit whose
   record is still in the OS buffer. *)
let apply_job t job =
  match (job.j_origin, t.dedup) with
  | Some (client, seq), Some d -> (
      match Dedup.check d ~client ~seq with
      | `Duplicate (commit, reports, delta_ops) ->
          bump t "dedup_hits";
          Committed { seq = commit; reports; delta_ops }
      | `Stale ->
          bump t "dedup_stale";
          Failed
            (Printf.sprintf "stale request %s#%d: a newer request was already \
                             acknowledged" client seq)
      | `Fresh -> (
          (* reserve dedup-table room BEFORE applying: once the group
             commits its entry must go in, and evicting a live client's
             entry to make space would quietly break that client's
             exactly-once retries. No room → refuse, retryable. *)
          match Dedup.admit d ~client with
          | `Ok -> really_apply t job
          | `Evicted _ ->
              bump t "dedup_evictions";
              really_apply t job
          | `Full ->
              bump t "dedup_full";
              Session_full))
  | _ -> really_apply t job

(* drain up to [batch_cap] jobs; blocks while the queue is empty *)
let next_batch t =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.stopping do
    Condition.wait t.nonempty t.m
  done;
  let batch = ref [] in
  let n = ref 0 in
  while (not (Queue.is_empty t.q)) && !n < t.batch_cap do
    batch := Queue.pop t.q :: !batch;
    incr n
  done;
  Mutex.unlock t.m;
  List.rev !batch

let run_batch t batch =
  (* apply the whole batch under one exclusive section … *)
  let outcomes =
    with_lock t.lock (fun () ->
        let outcomes = List.map (apply_job t) batch in
        (* capture the committed state before the lock drops: snapshot
           readers then always see either the previous batch whole or
           this one whole, never a prefix *)
        t.publish ();
        outcomes)
  in
  (* … then sync once, outside the lock, so readers overlap the device
     write; no job is acknowledged before its batch is on disk. A failed
     sync must not kill the writer thread — every job in the batch gets
     the retryable [Sync_failed] answer, the server degrades to
     read-only, and the loop keeps serving (a later successful sync
     restores service). *)
  match t.sync () with
  | () ->
      bump t "batches";
      bump_n t "batched_updates" (List.length batch);
      List.iter2 fulfill batch outcomes
  | exception exn ->
      bump t "sync_failures";
      let msg = "wal sync failed: " ^ Printexc.to_string exn in
      t.on_io_error msg;
      List.iter (fun j -> fulfill j (Sync_failed msg)) batch

let writer_loop t =
  let rec loop () =
    match next_batch t with
    | [] -> if not t.stopping then loop () (* spurious wakeup *)
    | batch ->
        (match Io.hit "batcher.drain" with
        | () -> run_batch t batch
        | exception Unix.Unix_error (e, fn, arg) ->
            let msg = io_msg e fn arg in
            t.on_io_error msg;
            List.iter (fun j -> fulfill j (Sync_failed msg)) batch);
        loop ()
  in
  try loop () with _ when t.stopping -> ()

let create ?(queue_cap = 128) ?(batch_cap = 64) ~lock ?metrics
    ?(sync = fun () -> ()) ?dedup ?(origin_hook = fun _ -> ())
    ?(on_io_error = fun _ -> ()) ?(publish = fun () -> ())
    ?(initial_seq = 0) engine =
  if queue_cap < 1 || batch_cap < 1 then
    invalid_arg "Batcher.create: caps must be positive";
  let t =
    {
      engine;
      lock;
      metrics;
      sync;
      dedup;
      origin_hook;
      on_io_error;
      publish;
      queue_cap;
      batch_cap;
      q = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      seq = initial_seq;
      stopping = false;
      writer = None;
    }
  in
  t.writer <- Some (Thread.create writer_loop t);
  t

let submit ?origin t ~policy ops =
  let job =
    {
      j_ops = ops;
      j_policy = policy;
      j_origin = origin;
      j_m = Mutex.create ();
      j_c = Condition.create ();
      j_result = None;
    }
  in
  Mutex.lock t.m;
  let accepted = (not t.stopping) && Queue.length t.q < t.queue_cap in
  if accepted then begin
    Queue.push job t.q;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.m;
  if accepted then `Job job
  else begin
    bump t "overloaded";
    `Overloaded
  end

let submit_wait ?origin t ~policy ops =
  match submit ?origin t ~policy ops with
  | `Overloaded -> `Overloaded
  | `Job j -> `Done (await j)

let seq t = t.seq

(* promotion: adopt the follower's applied position as the commit
   counter. The exclusive lock guarantees no batch is mid-apply — on a
   replica being promoted the queue is empty anyway (writes were
   refused), so this is a plain counter store *)
let set_seq t seq = with_lock t.lock (fun () -> t.seq <- seq)

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  match t.writer with
  | None -> ()
  | Some th ->
      t.writer <- None;
      Thread.join th;
      (* the writer drains whole batches before re-checking [stopping];
         anything still queued here was accepted but never applied *)
      Mutex.lock t.m;
      let leftover = List.of_seq (Queue.to_seq t.q) in
      Queue.clear t.q;
      Mutex.unlock t.m;
      List.iter (fun j -> fulfill j (Failed "server stopped")) leftover
