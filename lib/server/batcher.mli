(** The single-writer group-commit loop.

    Update requests from any number of connection threads are enqueued
    as jobs on a bounded queue. One dedicated writer thread drains up to
    [batch_cap] jobs at a time, applies each as an atomic group through
    [Engine.apply_group] holding the exclusive [lock] mutex, then
    releases the lock and pays {e one} WAL sync for the whole drained
    batch before acknowledging any of its jobs — the classic group
    commit: the fsync (the dominant cost under [Sync_always]) is
    amortized over every commit in the batch, and readers run while the
    device write is in flight.

    Backpressure is the queue bound: {!submit} never blocks the
    connection thread on a full queue — it reports [`Overloaded]
    immediately, which the server turns into the protocol's
    [Overloaded] reply.

    The batcher is also where exactly-once retries are resolved. A job
    carrying an [origin] (client id, request seq) is checked against the
    {!Dedup} table {e inside} the writer loop: a duplicate is answered
    from the table — after its batch's sync, so the cached answer is
    never delivered while the original record could still be sitting in
    an OS buffer — and a fresh request has its origin staged into the
    WAL record of its own commit. Durability failures (a failed batch
    sync, or an I/O error during the commit's WAL append) do not kill
    the writer: the affected jobs get the retryable {!Sync_failed}
    answer, [on_io_error] fires (the server uses it to degrade to
    read-only mode), and the loop keeps running. *)

module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Persist = Rxv_persist.Persist

type outcome =
  | Committed of { seq : int; reports : int; delta_ops : int }
      (** the group committed as the [seq]-th write in the server's
          serialization order, and — when a sync hook is installed — is
          durable. Duplicates of an already-committed request get the
          original's numbers. *)
  | Rejected_at of int * Engine.rejection
      (** op [index] rejected; the engine rolled back the whole group *)
  | Failed of string  (** definitive failure (bug, stale request, stop) *)
  | Sync_failed of string
      (** durability could not be guaranteed; nothing was acknowledged
          and the request is safe to retry with the same origin *)
  | Session_full
      (** the dedup table is at capacity with no evictable (aged-out)
          entry, so a new client session cannot be admitted without
          breaking another client's exactly-once guarantee; nothing was
          applied — retry later with the same origin *)

type job

type t

val create :
  ?queue_cap:int ->
  ?batch_cap:int ->
  lock:Mutex.t ->
  ?metrics:Metrics.t ->
  ?sync:(unit -> unit) ->
  ?dedup:Dedup.t ->
  ?origin_hook:(Persist.origin option -> unit) ->
  ?on_io_error:(string -> unit) ->
  ?publish:(unit -> unit) ->
  ?initial_seq:int ->
  Engine.t ->
  t
(** start the writer thread. [lock] is the engine's exclusive section:
    the writer holds it while applying a batch, and every other writer
    of the engine must take it too. [queue_cap] (default 128) bounds
    pending jobs; [batch_cap] (default 64) bounds how many commits share one
    sync; [sync] (default no-op) is called once per drained batch —
    typically [Rxv_persist.Persist.sync] with the engine's WAL hook
    attached in [deferred_sync] mode. [dedup] enables exactly-once
    handling of jobs that carry an origin; [origin_hook] (typically
    [Persist.set_origin]) stages each fresh job's provenance for its WAL
    record; [on_io_error] fires on any durability failure; [publish]
    (default no-op) fires at the end of each batch's exclusive section,
    with every group committed or rolled back and no frame open — the
    server hooks [Engine.Snapshot.capture] here to publish a fresh MVCC
    read view per batch; [initial_seq] seeds the commit counter
    (recovery passes the last recovered commit number so the sequence
    continues across restarts — dedup entries reference these
    numbers). *)

val submit :
  ?origin:string * int ->
  t ->
  policy:Engine.policy ->
  Xupdate.t list ->
  [ `Job of job | `Overloaded ]
(** enqueue one atomic update group; [`Overloaded] when the queue is
    full or the batcher is stopping. [origin = (client, req_seq)] opts
    the job into exactly-once dedup. *)

val await : job -> outcome
(** block until the job's batch is applied and synced *)

val submit_wait :
  ?origin:string * int ->
  t ->
  policy:Engine.policy ->
  Xupdate.t list ->
  [ `Done of outcome | `Overloaded ]

val seq : t -> int
(** commit number of the latest committed group *)

val set_seq : t -> int -> unit
(** reseed the commit counter (under the exclusive lock, so never while
    a batch is mid-apply) — the promotion path adopts the follower
    loop's applied position so the new primary's first commit continues
    the replicated numbering *)

val stop : t -> unit
(** drain every accepted job, sync, and join the writer thread;
    idempotent. Jobs submitted after [stop] begins are [`Overloaded]. *)
