(** The concurrent view-update service.

    One listening socket (Unix-domain or TCP), one handler thread per
    connection, one {!Batcher} writer thread. Locking discipline:

    - queries and stats are served from the latest MVCC snapshot the
      batcher published at the end of its last write batch — no lock at
      all, so readers never block behind the writer's exclusive section,
      and the writer never waits behind a long read;
    - update groups are serialized through the batcher, which holds the
      writer's mutex (the exclusive section) only while applying, never
      across the sync;
    - checkpoints and degraded-mode durability probes take the same
      mutex directly (plus the sync mutex shared with the batcher).

    Protocol-level failures (unparsable XPath, unknown element type) are
    [Error] replies on a healthy connection; transport-level corruption
    (bad CRC, truncated frame) or socket death (EPIPE, ECONNRESET,
    injected EIO) kills just that connection.

    {b Degraded read-only mode.} When durability fails — a WAL sync or
    checkpoint raises — the server stops accepting writes ([Unavailable]
    replies) but keeps serving queries and stats (which report the
    condition via [st_health]). Each subsequent write attempt may probe
    the device (rate-limited by [probe_interval]); the first successful
    sync both proves the device recovered and flushes everything that
    was buffered, so service resumes with nothing lost.

    {b Exactly-once updates.} Updates carrying a client identity are
    deduplicated against the {!Dedup} table (rebuilt from the WAL at
    recovery, snapshotted into each new generation at checkpoint): a
    retry of an acknowledged request returns the original answer instead
    of applying twice. *)

module Engine = Rxv_core.Engine
module Persist = Rxv_persist.Persist

type address =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** bind address, port *)

type role =
  [ `Primary  (** accepts updates; streams its WAL to pulling followers *)
  | `Replica
    (** read-only: updates get a definitive [Fenced] (route to the
        primary); the state advances only through the follower loop's
        {!exclusive}/{!publish_applied}. [config.role] is only the
        {e starting} role — {!promote} turns a replica into the
        primary, and a deposed primary demotes itself when fenced. *) ]

type config = {
  queue_cap : int;  (** pending update groups before [Overloaded] *)
  batch_cap : int;  (** commits amortized per WAL sync *)
  max_listed : int;  (** node ids listed in a query reply *)
  probe_interval : float;
      (** min seconds between degraded-mode durability probes *)
  max_sessions : int;
      (** dedup-table capacity; beyond it new client sessions are
          refused ([Overloaded]) unless an entry has aged out *)
  role : role;
}

val default_config : config
(** [{ queue_cap = 128; batch_cap = 64; max_listed = 32;
      probe_interval = 0.25; max_sessions = 1024; role = `Primary }] *)

type health = [ `Ok | `Degraded of string ]

type t

val start : ?config:config -> ?persist:Persist.t -> address -> Engine.t -> t
(** bind, listen and serve. When [persist] is given the engine's WAL
    hook is (re)attached in [deferred_sync] mode, the batcher syncs it
    once per batch, and the dedup table / commit counter resume from the
    recovered WAL state; without it updates are volatile (and dedup is
    in-memory only). On a [`Replica] the engine hook stays detached —
    the durable follower loop logs the primary's records verbatim
    ({!Persist.append_raw}) so its log is byte-identical and therefore
    promotable; {!promote} attaches the hook.
    @raise Unix.Unix_error when binding fails *)

val engine : t -> Engine.t
val metrics : t -> Metrics.t
val address : t -> address

val batcher : t -> Batcher.t
(** the single-writer group-commit loop (e.g. for {!Batcher.seq}) *)

val dedup : t -> Dedup.t
(** the exactly-once session table *)

val feed : t -> Repl_feed.t option
(** the replication feed — present iff the server persists; the WAL is
    the stream's unit of truth, so a volatile server streams nothing *)

val role : t -> role
(** the node's {e current} role (may differ from [config.role] after a
    promotion or a fencing demotion) *)

val epoch : t -> int
(** highest replication epoch this node has witnessed *)

val note_epoch : t -> int -> unit
(** adopt a higher witnessed epoch (no-op when not higher) — the
    follower loop's hook when the primary's replies carry a newer one *)

val leader_hint : t -> string
val set_leader_hint : t -> string -> unit
(** best-known primary address, included in [Fenced] refusals so a
    fenced client can redirect (["unix:<path>"] / ["tcp:<host>:<port>"];
    [""] unknown) *)

val set_promote_hook : t -> (unit -> unit) -> unit
(** installed by the follower runtime: {!promote} calls it first to stop
    the replication loop, freezing the applied position before the epoch
    boundary is read *)

val promote : t -> int * int
(** make this node the primary: stop the follower loop (promote hook),
    bump the epoch, durably log the transition ({!Persist.append_epoch})
    {e before} any write of the new epoch can be accepted, adopt the
    applied position as the commit counter, and flip the role. Returns
    [(epoch, boundary)] — the first commit of the new epoch is
    [boundary + 1]. Idempotent on a node that is already primary. *)

val sync_persist : t -> unit
(** fsync the WAL (under the server's sync discipline) and advance the
    replication feed's durable watermark — the durable follower loop
    calls this after each raw-appended batch, mirroring the batcher's
    per-batch sync *)

val applied_seq : t -> int
(** the commit number the published snapshot covers — on a primary the
    batcher's sequence at the last publish, on a replica the follower's
    last {!publish_applied} *)

val exclusive : t -> (unit -> 'a) -> 'a
(** run [f] holding the engine's exclusive (writer) section — the
    follower loop's apply section, same mutex as the batcher's batches.
    Not reentrant: [f] must not call {!exclusive} again. *)

val publish_applied : t -> seq:int -> unit
(** freeze the current committed state as the published MVCC snapshot
    and open the {!Rxv_server.Proto.request.Query_at} read gate up to
    commit [seq] — the replica-side mirror of the batcher's per-batch
    publish. Call outside {!exclusive}, with no transaction frame
    open. *)

val health : t -> health
val health_string : t -> string
(** ["ok"] or ["degraded: <reason>"] *)

val initiate_stop : t -> unit
(** ask the accept loop to wind down; returns immediately (safe to call
    from a handler thread) *)

val wait : t -> unit
(** block until the server has stopped: accept loop exited, live
    connections shut down and joined, batcher drained and joined,
    socket closed (and unlinked for Unix-domain). *)

val stop : t -> unit
(** {!initiate_stop} then {!wait} — never call from a handler thread *)
