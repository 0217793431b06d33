(** The follower replication loop: pull committed WAL records from the
    primary, re-apply them through the recovery replay path, publish. *)

module Server = Rxv_server.Server
module Client = Rxv_server.Client
module Metrics = Rxv_server.Metrics
module Dedup = Rxv_server.Dedup
module Proto = Rxv_server.Proto
module Engine = Rxv_core.Engine
module Base_update = Rxv_core.Base_update
module Persist = Rxv_persist.Persist
module Checkpoint = Rxv_persist.Checkpoint
module Codec = Rxv_persist.Codec
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg

let src =
  Logs.Src.create "rxv.replica" ~doc:"WAL-streaming replication follower"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  server : Server.t;
  name : string;
  primary : Server.address;
  init : unit -> Database.t;
  seed0 : int;
  pull_max : int;
  wait_ms : int;
  fp_prefix : string option;
  persist : Persist.t option;
  auto_promote : float option;
  peers : (string * Server.address) list;
  mutable conn : Client.t option;
  mutable after_ : int;
  mutable head_ : int;
  mutable n_resets : int;
  mutable n_reconnects : int;
  mutable n_repairs : int;
  mutable last_contact : float;
  mutable err : string option;
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let after t = t.after_
let head_seen t = t.head_
let lag t = Stdlib.max 0 (t.head_ - t.after_)
let resets t = t.n_resets
let reconnects t = t.n_reconnects
let repairs t = t.n_repairs
let last_error t = t.err
let epoch t = Server.epoch t.server

let addr_name = function
  | Server.Unix_sock path -> "unix:" ^ path
  | Server.Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let publish_gauges t =
  let mx = Server.metrics t.server in
  Metrics.set_gauge mx "repl_after" t.after_;
  Metrics.set_gauge mx "repl_head_seen" t.head_;
  Metrics.set_gauge mx "repl_lag" (lag t);
  Metrics.set_gauge mx "repl_resets" t.n_resets;
  Metrics.set_gauge mx "repl_reconnects" t.n_reconnects;
  Metrics.set_gauge mx "repl_repairs" t.n_repairs

(* interruptible sleep: wakes within 50 ms of [stop] *)
let nap t total =
  let rec go left =
    if (not t.stopping) && left > 0. then begin
      Thread.delay (Stdlib.min 0.05 left);
      go (left -. 0.05)
    end
  in
  go total

(* the stream's receive timeout must outlast the server-side long-poll,
   or every caught-up pull would look like a dead connection *)
let rcv_timeout t = (float_of_int t.wait_ms /. 1000.) +. 1.0

let connect t =
  let should_stop () = t.stopping in
  let c =
    match t.primary with
    | Server.Unix_sock path ->
        Client.connect ~retries:10 ~rcv_timeout:(rcv_timeout t)
          ?fp_prefix:t.fp_prefix ~should_stop path
    | Server.Tcp (host, port) ->
        Client.connect_tcp ~retries:10 ~rcv_timeout:(rcv_timeout t)
          ?fp_prefix:t.fp_prefix ~should_stop host port
  in
  t.conn <- Some c;
  t.n_reconnects <- t.n_reconnects + 1;
  c

let drop_conn t =
  (match t.conn with Some c -> Client.close c | None -> ());
  t.conn <- None

(* durably adopt a newly witnessed epoch. The transition record matters
   beyond this process: if THIS follower is promoted later, a deposed
   ex-primary rejoining under it finds its truncation boundary in our
   log — an in-memory-only adoption would leave that rejoiner's diverged
   suffix in place. *)
let adopt_epoch t ~epoch ~boundary =
  if epoch > Server.epoch t.server then begin
    Server.note_epoch t.server epoch;
    match t.persist with
    | None -> ()
    | Some p ->
        (* with no boundary in the reply (e.g. a reset) fall back to our
           own applied position: we only ever apply records the new
           epoch's primary serves, so it never overstates the shared
           prefix relative to what we hold *)
        let boundary =
          match boundary with Some b -> b | None -> t.after_
        in
        Persist.append_epoch p ~epoch ~boundary
  end

(* carry client provenance into the local dedup table as records apply:
   after a promotion this node must answer retries of requests the old
   primary already acknowledged, instead of applying them twice *)
let record_origins t origins =
  let d = Server.dedup t.server in
  List.iter
    (fun ((o : Persist.origin), delta) ->
      ignore
        (Dedup.record d ~client:o.Persist.o_client ~seq:o.Persist.o_seq
           ~commit:o.Persist.o_commit ~reports:o.Persist.o_reports ~delta))
    origins

(* decode a batch of group payloads and fold them into the engine
   atomically under the exclusive side, adopting the final record's
   seed. One record = one commit. Returns the group count and the
   origins they carried (with their delta sizes, for dedup). *)
let apply_to_engine t payloads =
  match
    List.filter_map
      (fun payload ->
        match Persist.decode_record payload with
        | Persist.Group { seed; origin; group; _ } -> Some (seed, origin, group)
        | Persist.Sessions _ | Persist.Epoch _ -> None)
      payloads
  with
  | exception Codec.Error msg -> Error ("undecodable replicated record: " ^ msg)
  | [] -> Ok (0, [])
  | groups -> (
      let e = Server.engine t.server in
      let batch = List.concat_map (fun (_, _, g) -> g) groups in
      let final_seed =
        List.fold_left (fun _ (s, _, _) -> s) e.Engine.seed groups
      in
      let applied =
        Server.exclusive t.server (fun () ->
            let r =
              if Group_update.is_empty batch then Ok ()
              else
                match Base_update.apply e batch with
                | Ok _ -> Ok ()
                | Error msg -> Error msg
            in
            (match r with
            | Ok () -> e.Engine.seed <- final_seed
            | Error _ -> ());
            r)
      in
      match applied with
      | Ok () ->
          let origins =
            List.filter_map
              (fun (_, o, g) ->
                Option.map (fun o -> (o, List.length g)) o)
              groups
          in
          Ok (List.length groups, origins)
      | Error msg -> Error msg)

(* re-run the deterministic generation-0 publication: where a pull from
   commit 0 lands when the primary has never checkpointed, and the
   fallback when this follower's state has diverged beyond repair *)
let install_fresh t =
  let e = Server.engine t.server in
  let db = t.init () in
  let store = Rxv_atg.Publish.publish e.Engine.atg db in
  Server.exclusive t.server (fun () ->
      Engine.reset_from e db store ~seed:t.seed0);
  (match t.persist with Some p -> Persist.reset_empty p | None -> ());
  t.after_ <- 0;
  t.n_resets <- t.n_resets + 1;
  Server.publish_applied t.server ~seq:0

let decode_sessions = function
  | None -> []
  | Some payload -> (
      match Persist.decode_record payload with
      | Persist.Sessions { sessions; _ } -> sessions
      | Persist.Group _ | Persist.Epoch _ -> []
      | exception Codec.Error _ -> [])

let install_ckpt t ~generation ~base ~sessions bytes =
  let tmp = Filename.temp_file "rxv-follower" ".rxc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      output_string oc bytes;
      close_out oc;
      match Checkpoint.read tmp with
      | Error msg -> Error ("shipped checkpoint unreadable: " ^ msg)
      | Ok (meta, db, store) ->
          let e = Server.engine t.server in
          if meta.Checkpoint.atg_name <> e.Engine.atg.Atg.name then
            Error
              (Fmt.str "checkpoint ATG %S does not match follower ATG %S"
                 meta.Checkpoint.atg_name e.Engine.atg.Atg.name)
          else begin
            Server.exclusive t.server (fun () ->
                Engine.reset_from e db store ~seed:meta.Checkpoint.seed);
            (* adopt the image as our own recovery root, and its dedup
               snapshot as ours — a restart (or a promotion) then starts
               from exactly the state the primary would *)
            (match t.persist with
            | Some p ->
                Persist.install_checkpoint p ~generation ~base ~sessions bytes
            | None -> ());
            Dedup.load (Server.dedup t.server) sessions;
            t.after_ <- base;
            t.n_resets <- t.n_resets + 1;
            Server.publish_applied t.server ~seq:base;
            Ok ()
          end)

let handle_reset t (rs : Client.reset) =
  let sessions = decode_sessions rs.Client.rs_sessions in
  (match rs.Client.rs_ckpt with
  | None ->
      Log.info (fun m ->
          m "%s: reset to generation %d: fresh initial publication" t.name
            rs.Client.rs_generation);
      install_fresh t;
      Dedup.load (Server.dedup t.server) sessions;
      t.err <- None
  | Some bytes -> (
      match
        install_ckpt t ~generation:rs.Client.rs_generation
          ~base:rs.Client.rs_base ~sessions bytes
      with
      | Ok () ->
          Log.info (fun m ->
              m "%s: installed checkpoint generation %d (base commit %d, %d \
                 bytes)"
                t.name rs.Client.rs_generation rs.Client.rs_base
                (String.length bytes));
          t.err <- None
      | Error msg ->
          t.err <- Some msg;
          Log.err (fun m -> m "%s: %s" t.name msg);
          nap t 0.2));
  adopt_epoch t ~epoch:rs.Client.rs_epoch ~boundary:None

(* the stream apply path: engine first, then mirror the primary's bytes
   verbatim into our own WAL and sync — the follower's log stays
   byte-identical to the primary's committed prefix, which is what makes
   this node promotable — then feed the origins into dedup and publish *)
let apply_records t payloads =
  match apply_to_engine t payloads with
  | Error _ as e -> e
  | Ok (n, origins) ->
      (match t.persist with
      | Some p ->
          List.iter (Persist.append_raw p) payloads;
          Server.sync_persist t.server
      | None -> ());
      record_origins t origins;
      t.after_ <- t.after_ + n;
      Server.publish_applied t.server ~seq:t.after_;
      Ok ()

(* rebuild the engine from our own (now prefix-consistent) checkpoint
   and WAL tail — recovery's replay, against the live engine *)
let rebuild_from_disk t p =
  let e = Server.engine t.server in
  let gen = Persist.generation p in
  (match Checkpoint.read (Persist.checkpoint_path p gen) with
  | Ok (meta, db, store) ->
      Server.exclusive t.server (fun () ->
          Engine.reset_from e db store ~seed:meta.Checkpoint.seed)
  | Error _ ->
      (* generation 0 has no image: restart from the deterministic
         initial publication *)
      let db = t.init () in
      let store = Rxv_atg.Publish.publish e.Engine.atg db in
      Server.exclusive t.server (fun () ->
          Engine.reset_from e db store ~seed:t.seed0));
  let base = Persist.recovered_base p in
  let last = Persist.recovered_last_commit p in
  t.after_ <- base;
  (if last > base then
     match Persist.read_group_tail p ~after:base ~max:(last - base) with
     | Ok payloads -> (
         match apply_to_engine t payloads with
         | Ok (n, origins) ->
             record_origins t origins;
             t.after_ <- base + n
         | Error msg ->
             Log.err (fun m ->
                 m "%s: replay of surviving tail failed (%s); full resync"
                   t.name msg);
             install_fresh t)
     | Error (`Reset _) -> install_fresh t);
  Server.publish_applied t.server ~seq:t.after_

(* The primary told us our history beyond [boundary] belongs to a
   superseded epoch: we are (or inherited the log of) a deposed primary
   whose final commits were acknowledged locally but never replicated.
   Truncate the diverged suffix at the commit boundary — the same
   prefix-truncation move as torn-tail repair — durably record the new
   epoch, rebuild the engine from the surviving prefix, and resume
   pulling as an ordinary follower. *)
let repair_divergence t ~boundary ~epoch =
  Log.warn (fun m ->
      m "%s: position %d is beyond epoch-%d boundary %d: truncating %d \
         diverged commit(s)"
        t.name t.after_ epoch boundary (t.after_ - boundary));
  (match t.persist with
  | None ->
      (* volatile: nothing to truncate — rebuild from scratch; the next
         pull (from commit 0) is answered with a checkpoint reset *)
      install_fresh t;
      Server.note_epoch t.server epoch
  | Some p ->
      if boundary < Persist.recovered_base p then begin
        (* the local checkpoint image itself contains diverged commits:
           nothing on disk is trustworthy — full resync *)
        install_fresh t;
        Persist.append_epoch p ~epoch ~boundary;
        Server.note_epoch t.server epoch
      end
      else begin
        let dropped = Persist.discard_after p ~commit:boundary in
        Persist.append_epoch p ~epoch ~boundary;
        Server.note_epoch t.server epoch;
        rebuild_from_disk t p;
        Log.info (fun m ->
            m "%s: dropped %d diverged commit(s); rejoining at %d as an \
               epoch-%d follower"
              t.name dropped t.after_ epoch)
      end);
  (* counted once complete: a reader that sees the count also sees the
     new epoch and the truncated position *)
  t.n_repairs <- t.n_repairs + 1;
  Metrics.incr (Server.metrics t.server) "repl_divergence_repairs"

(* peer's applied position, or None when unreachable *)
let peer_position addr =
  match
    let c =
      match addr with
      | Server.Unix_sock path ->
          Client.connect ~retries:2 ~rcv_timeout:1.0 path
      | Server.Tcp (host, port) ->
          Client.connect_tcp ~retries:2 ~rcv_timeout:1.0 host port
    in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Client.stats c)
  with
  | Ok st -> (
      match List.assoc_opt "repl_after" st.Proto.st_gauges with
      | Some n -> Some n
      | None -> Some 0)
  | Error _ -> None
  | exception _ -> None

(* Primary silence past the election timeout: promote ourselves only if
   no reachable peer has applied more — the most-caught-up follower
   wins, with ties broken by name so two equally-caught-up followers
   cannot both claim the epoch. Peers that do not answer are not waited
   for (they may be as dead as the primary). *)
let maybe_auto_promote t =
  match t.auto_promote with
  | None -> ()
  | Some timeout ->
      if (not t.stopping) && Unix.gettimeofday () -. t.last_contact > timeout
      then begin
        let eligible =
          List.for_all
            (fun (peer_name, addr) ->
              match peer_position addr with
              | None -> true (* unreachable: cannot outrank us *)
              | Some peer_after ->
                  peer_after < t.after_
                  || (peer_after = t.after_ && t.name < peer_name))
            t.peers
        in
        if eligible then begin
          Log.warn (fun m ->
              m "%s: primary silent for %.1fs with no peer ahead of commit \
                 %d: self-promoting"
                t.name timeout t.after_);
          let epoch, seq = Server.promote t.server in
          Metrics.incr (Server.metrics t.server) "auto_promotions";
          Log.warn (fun m ->
              m "%s: promoted: serving epoch %d from commit %d" t.name epoch
                seq)
        end
        else
          (* a better-placed peer exists; give it a full timeout to act *)
          t.last_contact <- Unix.gettimeofday ()
      end

let rec stream t c =
  if not t.stopping then
    match
      Client.repl_pull c ~follower:t.name ~after:t.after_ ~max:t.pull_max
        ~wait_ms:t.wait_ms ~epoch:(Server.epoch t.server)
    with
    | Ok (`Frames fr) ->
        t.head_ <- fr.Client.fr_head;
        t.last_contact <- Unix.gettimeofday ();
        t.err <- None;
        (match fr.Client.fr_boundary with
        | Some b when t.after_ > b ->
            repair_divergence t ~boundary:b ~epoch:fr.Client.fr_epoch
        | _ -> (
            adopt_epoch t ~epoch:fr.Client.fr_epoch
              ~boundary:fr.Client.fr_boundary;
            if fr.Client.fr_records <> [] then
              match apply_records t fr.Client.fr_records with
              | Ok () -> ()
              | Error msg ->
                  (* divergence the boundary did not explain: this record
                     will never re-apply here, so re-pulling it is a
                     livelock. Re-initialize and pull from commit 0. *)
                  t.err <- Some msg;
                  Log.err (fun m ->
                      m "%s: apply failed at commit %d (%s); re-initializing"
                        t.name (t.after_ + 1) msg);
                  install_fresh t));
        publish_gauges t;
        stream t c
    | Ok (`Reset rs) ->
        t.last_contact <- Unix.gettimeofday ();
        handle_reset t rs;
        publish_gauges t;
        stream t c
    | Ok (`Fenced (e, leader)) ->
        (* the node we pull from has itself been fenced: it cannot feed
           us. Remember the epoch and wait for an operator — or our own
           election — to settle who leads. *)
        Server.note_epoch t.server e;
        t.err <-
          Some
            (Printf.sprintf "upstream fenced at epoch %d%s" e
               (if leader = "" then "" else ", leader " ^ leader));
        publish_gauges t;
        nap t 0.5;
        maybe_auto_promote t;
        stream t c
    | Error msg ->
        (* in-protocol refusal — e.g. a primary with no durability
           directory. Keep probing: the operator may restart it durable. *)
        t.err <- Some msg;
        publish_gauges t;
        Log.warn (fun m -> m "%s: primary refused pull: %s" t.name msg);
        nap t 0.5;
        stream t c

let run t =
  while not t.stopping do
    match
      let c = connect t in
      (match
         Client.repl_hello c ~follower:t.name ~after:t.after_
           ~epoch:(Server.epoch t.server)
       with
      | Ok (`Frames fr) ->
          t.head_ <- fr.Client.fr_head;
          t.last_contact <- Unix.gettimeofday ();
          (match fr.Client.fr_boundary with
          | Some b when t.after_ > b ->
              repair_divergence t ~boundary:b ~epoch:fr.Client.fr_epoch
          | _ ->
              adopt_epoch t ~epoch:fr.Client.fr_epoch
                ~boundary:fr.Client.fr_boundary);
          t.err <- None
      | Ok (`Reset rs) ->
          t.last_contact <- Unix.gettimeofday ();
          handle_reset t rs
      | Ok (`Fenced (e, leader)) ->
          Server.note_epoch t.server e;
          t.err <-
            Some
              (Printf.sprintf "upstream fenced at epoch %d%s" e
                 (if leader = "" then "" else ", leader " ^ leader));
          nap t 0.5;
          maybe_auto_promote t
      | Error msg ->
          t.err <- Some msg;
          Log.warn (fun m -> m "%s: primary refused hello: %s" t.name msg);
          nap t 0.5);
      publish_gauges t;
      stream t c;
      drop_conn t
    with
    | () -> ()
    | exception Client.Disconnected reason ->
        drop_conn t;
        if not t.stopping then begin
          t.err <- Some reason;
          publish_gauges t;
          Log.info (fun m ->
              m "%s: stream to primary lost (%s); reconnecting" t.name reason);
          maybe_auto_promote t;
          nap t 0.1
        end
    | exception Unix.Unix_error (e, _, _) ->
        drop_conn t;
        if not t.stopping then begin
          t.err <- Some (Unix.error_message e);
          publish_gauges t;
          maybe_auto_promote t;
          nap t 0.2
        end
  done;
  drop_conn t

(* Safe from any thread, including the follower thread itself (the
   self-promotion path runs the promote hook from inside [run]): joining
   is skipped when the caller IS the loop — [stopping] is observed at
   the next loop check, and [run]'s epilogue closes the connection. *)
let stop t =
  t.stopping <- true;
  (match t.thread with
  | Some th when Thread.id th <> Thread.id (Thread.self ()) ->
      Thread.join th;
      t.thread <- None;
      drop_conn t
  | _ -> ())

let start ?(pull_max = 512) ?(wait_ms = 200) ?fp_prefix ?persist ?auto_promote
    ?(peers = []) ~name ~primary ~init ~seed server =
  let t =
    {
      server;
      name;
      primary;
      init;
      seed0 = seed;
      pull_max = Stdlib.max 1 pull_max;
      wait_ms = Stdlib.max 0 wait_ms;
      fp_prefix;
      persist;
      auto_promote;
      peers;
      conn = None;
      after_ = Server.applied_seq server;
      head_ = 0;
      n_resets = 0;
      n_reconnects = 0;
      n_repairs = 0;
      last_contact = Unix.gettimeofday ();
      err = None;
      stopping = false;
      thread = None;
    }
  in
  (* promotion must freeze the apply loop before the server adopts our
     position, and un-promoted followers should point writers at the
     primary we pull from *)
  Server.set_promote_hook server (fun () -> stop t);
  Server.set_leader_hint server (addr_name primary);
  publish_gauges t;
  t.thread <- Some (Thread.create run t);
  t
