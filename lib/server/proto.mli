(** The wire protocol: CRC-framed request/response messages.

    Every message on the socket is one {!Rxv_persist.Frame} record —
    [len ∥ crc32 ∥ payload] — whose payload is encoded with the
    {!Rxv_persist.Codec} primitives. The framing gives the service the
    same tail discipline as the WAL: a receiver can always classify what
    it read as a complete valid message, a truncated one, or corruption,
    and fail just that connection cleanly.

    Updates travel as XPath {e source text} plus typed attribute values;
    the server parses and validates them, so a malformed path is an
    in-protocol [Error] reply, never a broken stream. *)

module Value = Rxv_relational.Value

type policy = [ `Abort | `Proceed ]

type op =
  | Delete of string  (** delete <xpath> *)
  | Insert of { etype : string; attr : Value.t array; path : string }
      (** insert (etype, attr) into <xpath> *)

type request =
  | Ping
  | Query of string  (** XPath source *)
  | Update of {
      client : string;
      req_seq : int;
      epoch : int;
      policy : policy;
      ops : op list;
    }
      (** one atomic group: all ops commit (and become durable) together
          or none do. [client]/[req_seq] identify the request for
          exactly-once retry: a client that re-sends after a timeout or
          reconnect uses the {e same} sequence number, and the server
          answers an already-committed request from its dedup table
          instead of re-applying it. [client = ""] opts out (no dedup,
          at-most-once from the client's point of view). [epoch] is the
          highest replication epoch the client has witnessed ([0] = not
          participating): a server whose own epoch is higher answers
          {!Fenced}; a primary that {e receives} a higher epoch has been
          deposed and demotes itself before refusing. *)
  | Stats
  | Checkpoint
  | Shutdown
  | Repl_hello of { follower : string; after : int; epoch : int }
      (** a follower introduces itself: [follower] is its name (for the
          primary's lag registry), [after] the last commit number it has
          applied, [epoch] the highest epoch it has witnessed. Answered
          with an empty {!Repl_frames} (telling the follower the
          primary's durable head, epoch, and — when the follower's epoch
          is stale — the divergence boundary) or a {!Repl_reset} when
          the position predates what the primary can still stream. A
          primary seeing [epoch] above its own has been deposed: it
          demotes itself and answers {!Fenced}. *)
  | Repl_pull of {
      follower : string;
      after : int;
      max : int;
      wait_ms : int;
      epoch : int;
    }
      (** stream request: up to [max] committed group records for commit
          numbers [after+1 ..]. When the follower is caught up the
          primary parks the request for up to [wait_ms] before answering
          an empty {!Repl_frames} — long-polling, so a steady state
          stream needs no extra channel. Each pull doubles as the
          follower's progress acknowledgement. [epoch] fences exactly as
          in {!Repl_hello}. *)
  | Query_at of { path : string; min_seq : int; wait_ms : int }
      (** bounded-staleness read: answer only from a state that includes
          commit [min_seq], waiting up to [wait_ms] for it; otherwise
          reply [Unavailable] so the client can redirect to the
          primary. [min_seq = 0] is a plain query. *)
  | Promote
      (** operator-driven failover: ask this replica to become the
          primary — stop its follower loop, bump the epoch, durably log
          the transition, and start accepting writes. Answered with
          {!Promoted} (idempotent on a node that is already primary) or
          [Error] when the node cannot serve as one. *)

type server_stats = {
  st_nodes : int;
  st_edges : int;
  st_m_size : int;
  st_l_size : int;
  st_occurrences : int;
  st_generation : int;
      (** the commit number the published snapshot covers: committed
          update groups, counted as [Query_at] counts them *)
  st_wal_records : int option;  (** [None] when the server has no WAL *)
  st_health : string;
      (** ["ok"], or ["degraded: <reason>"] while the server is in
          read-only mode after a durability failure *)
  st_counters : (string * int) list;
  st_gauges : (string * int) list;
      (** instantaneous values: replication positions, per-follower lag
          and connection state (see {!Metrics.set_gauge}) *)
  st_latencies : Metrics.summary list;
}

type response =
  | Pong
  | Selected of { count : int; nodes : (string * int) list }
      (** query result: |r[[p]]| and a bounded prefix of (etype, id) *)
  | Applied of { seq : int; reports : int; delta_ops : int }
      (** the group committed (durably, if a WAL is attached) as commit
          number [seq] in the server's serialization order *)
  | Rejected of { index : int; reason : string }
      (** op [index] was rejected; the whole group rolled back *)
  | Overloaded
      (** backpressure: the update queue was full; retry later *)
  | Stats_reply of server_stats
  | Checkpointed of { generation : int; bytes : int }
  | Bye  (** shutdown acknowledged; the server is stopping *)
  | Error of string  (** request-level failure; the connection survives *)
  | Unavailable of string
      (** the server cannot guarantee durability right now (degraded
          read-only mode, or the sync for this batch failed); the update
          was {e not} acknowledged and is safe to retry — with the same
          [req_seq] — once the server recovers *)
  | Repl_frames of {
      after : int;
      head : int;
      records : string list;
      epoch : int;
      boundary : int option;
    }
      (** answer to {!Repl_hello}/{!Repl_pull}: the encoded WAL group
          records for commits [after+1 .. after+|records|] — byte-equal
          to what the primary logged, decoded with
          {!Rxv_persist.Persist.decode_record} — plus [head], the
          primary's durable commit watermark (records beyond the last
          fsync are never streamed). [records = []] with [head > after]
          means "pull again"; with [head = after], "caught up".

          [epoch] is the primary's current epoch — a follower adopts it
          when higher than its own. [boundary] is present when the
          {e requester's} epoch was stale: the last commit its history
          provably shares with the primary's. A follower whose [after]
          exceeds the boundary has a diverged suffix and must repair
          (truncate and re-sync) before applying anything. *)
  | Repl_reset of {
      generation : int;
      base : int;
      ckpt : string option;
      epoch : int;
      sessions : string option;
    }
      (** the follower's position predates the primary's stream horizon:
          reinstall from [ckpt] (the raw checkpoint image of
          [generation], whose WAL starts at commit [base]) — or, when
          [ckpt = None] (generation 0), from the deterministic initial
          publication — then pull again from [base]. [epoch] as in
          {!Repl_frames}. [sessions], when present, is the primary's
          encoded dedup snapshot as of [generation]'s rotation
          ({!Rxv_persist.Persist.encode_sessions_record}): the follower
          loads it so exactly-once retries survive a later promotion
          even for requests acknowledged before the checkpoint. *)
  | Fenced of { epoch : int; leader : string }
      (** definitive refusal of a stale-epoch request: the sender's
          epoch (or this node's role) belongs to a superseded primary.
          Never retryable against this node at that epoch. [epoch] is
          the highest epoch this node knows; [leader] is an address hint
          for the current primary (["" ] when unknown) in
          ["unix:<path>"] / ["tcp:<host>:<port>"] form. *)
  | Promoted of { epoch : int; seq : int }
      (** promotion succeeded: this node is now the primary for [epoch],
          whose first commit will be [seq + 1] *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit

(** {2 Codec} — pure payload encoding (framing excluded) *)

val encode_request : request -> string
val decode_request : string -> request
(** @raise Rxv_persist.Codec.Error on malformed payload *)

val encode_response : response -> string
val decode_response : string -> response
(** @raise Rxv_persist.Codec.Error on malformed payload *)

(** {2 Framed socket transport} *)

val send : ?fp:string -> Unix.file_descr -> string -> unit
(** frame the payload and write it whole, resuming over EINTR and short
    writes. [fp] names the {!Rxv_fault} site every underlying [write]
    passes through (e.g. ["srv.write"]). *)

val recv :
  ?fp:string -> Unix.file_descr -> [ `Msg of string | `Eof | `Corrupt of string ]
(** read exactly one framed message, resuming over EINTR. [`Eof] is a
    clean close before a frame starts; a truncated header/body, a CRC
    mismatch, or a declared length above {!Rxv_persist.Frame.max_accepted}
    is [`Corrupt] — the stream is unusable from here and must be closed.
    [fp] names the failpoint site for the underlying reads. *)
