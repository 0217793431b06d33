(* rxv — command-line front end for the recursive-XML-view update engine.

   Scenarios are rebuilt per invocation (the library is an embedded
   engine, not a server):

     rxv show                         print the registrar view
     rxv show -s synth -n 2000       print dataset statistics instead
     rxv query '//course[cno=CS320]/takenBy/student'
     rxv delete '//student[ssn=S02]'
     rxv insert course CS999 'New Course' --into 'course[cno=CS240]/prereq'
     rxv stats -s synth -n 10000

   With --wal DIR the engine becomes stateful across invocations: state
   is recovered from DIR's newest checkpoint plus its write-ahead log,
   and every committed update appends to the log, so

     rxv delete '//student[ssn=S02]' --wal /tmp/rxv
     rxv show --wal /tmp/rxv                 # reflects the deletion
     rxv checkpoint --wal /tmp/rxv           # compact the log
     rxv recover --wal /tmp/rxv              # verify what's on disk
*)

module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Dag_eval = Rxv_core.Dag_eval
module Parser = Rxv_xpath.Parser
module Tree = Rxv_xml.Tree
module Value = Rxv_relational.Value
module Registrar = Rxv_workload.Registrar
module Synth = Rxv_workload.Synth
module Persist = Rxv_persist.Persist
module Wal = Rxv_persist.Wal

open Cmdliner

(* --verbose: route engine logs (rxv.engine) to stderr *)
let setup_logs =
  let setup verbose =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)
  in
  Term.(
    const setup
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show engine logs."))

type scenario = Sregistrar | Ssynth

let scenario_conv =
  Arg.enum [ ("registrar", Sregistrar); ("synth", Ssynth) ]

let scenario_arg =
  Arg.(
    value
    & opt scenario_conv Sregistrar
    & info [ "s"; "scenario" ] ~docv:"SCENARIO"
        ~doc:"Data scenario: $(b,registrar) (the paper's running example) \
              or $(b,synth) (the Section 5 generator).")

let size_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "n"; "size" ] ~docv:"N" ~doc:"|C| for the synthetic scenario.")

let seed_arg =
  Arg.(
    value
    & opt int 7
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Deterministic seed: drives the synth generator and the \
              engine's WalkSAT seed sequence.")

let data_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "data" ] ~docv:"DIR"
        ~doc:"Load DIR/<relation>.csv files instead of the built-in \
              instance (registrar scenario).")

let atg_of = function
  | Sregistrar -> Registrar.atg ()
  | Ssynth -> Synth.atg ()

let init_db scenario n seed data =
  match scenario with
  | Sregistrar -> (
      match data with
      | None -> Registrar.sample_db ()
      | Some dir ->
          let db = Rxv_relational.Database.create Registrar.schema in
          let loaded = Rxv_relational.Csv_io.load_dir db dir in
          if loaded = [] then
            Fmt.epr "warning: no <relation>.csv files found in %s@." dir;
          db)
  | Ssynth -> (Synth.generate (Synth.default_params ~seed n)).Synth.db

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:"Durability directory: recover the engine from DIR's newest \
              checkpoint and write-ahead log instead of rebuilding the \
              scenario, and log every committed update there — state then \
              persists across invocations.")

let sync_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun m -> `Msg m) (Wal.sync_policy_of_string s)),
      Wal.pp_sync_policy )

let sync_arg =
  Arg.(
    value
    & opt sync_conv (Wal.EveryN 64)
    & info [ "sync" ] ~docv:"POLICY"
        ~doc:"WAL durability: $(b,always) (fsync per commit), $(b,every:N) \
              or $(b,never).")

(* build the engine — from the scenario directly, or, under --wal, by
   recovery (checkpoint + log replay) with the scenario as generation-0
   initial state; [f] also receives the open durability handle *)
let with_engine scenario n seed data wal sync
    (f : Engine.t -> Persist.t option -> int) : int =
  match wal with
  | None -> f (Engine.create ~seed (atg_of scenario) (init_db scenario n seed data)) None
  | Some dir -> (
      let p = Persist.open_dir ~sync dir in
      match
        Persist.recover ~seed p (atg_of scenario)
          ~init:(fun () -> init_db scenario n seed data)
      with
      | Error msg ->
          Fmt.epr "recovery failed: %s@." msg;
          3
      | Ok (e, info) ->
          Logs.info (fun m ->
              m "recovered: %a" Persist.pp_recovery_info info);
          Persist.attach p e;
          Fun.protect ~finally:(fun () -> Persist.close p) (fun () -> f e (Some p)))

let path_arg p =
  Arg.(
    required
    & pos p (some string) None
    & info [] ~docv:"XPATH" ~doc:"XPath expression (paper syntax).")

let parse_path s =
  try Ok (Parser.parse s)
  with Rxv_xpath.Parser.Parse_error (msg, pos) ->
    Error (Fmt.str "XPath parse error at offset %d: %s" pos msg)

let print_stats e =
  let st = Engine.stats e in
  Fmt.pr "tree occurrences   %d@." st.Engine.occurrences;
  Fmt.pr "DAG nodes          %d@." st.Engine.n_nodes;
  Fmt.pr "edge tuples |V|    %d@." st.Engine.n_edges;
  Fmt.pr "|M| (reachability) %d@." st.Engine.m_size;
  Fmt.pr "|L| (topo order)   %d@." st.Engine.l_size;
  Fmt.pr "shared instances   %.1f%%@." (100. *. st.Engine.sharing);
  Fmt.pr "open txn frames    %d@." st.Engine.txn_depth;
  Fmt.pr "XPath evaluations  %d, %d snapshot memo hits@."
    st.Engine.cache_misses st.Engine.cache_hits;
  Fmt.pr "reads              %d live, %d snapshot@." st.Engine.live_reads
    st.Engine.snapshot_reads;
  Fmt.pr "sat skeletons      %d hits, %d misses@." st.Engine.sat_skeleton_hits
    st.Engine.sat_skeleton_misses;
  Fmt.pr "sat solving        %d learned kept@." st.Engine.sat_learned_kept;
  match st.Engine.wal_records with
  | Some k -> Fmt.pr "WAL records        %d since last checkpoint@." k
  | None -> ()

(* --- show --- *)

let show_cmd =
  let run scenario n seed data wal sync max_nodes =
    with_engine scenario n seed data wal sync (fun e _ ->
        if max_nodes > 0 then
          Fmt.pr "%a@." Tree.pp (Engine.to_tree ~max_nodes e)
        else print_stats e;
        0)
  in
  let max_nodes =
    Arg.(
      value
      & opt int 10_000
      & info [ "max-nodes" ] ~docv:"K"
          ~doc:"Materialization budget; 0 prints statistics instead of the \
                tree.")
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the published XML view.")
    Term.(const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg
      $ seed_arg $ data_arg $ wal_arg $ sync_arg $ max_nodes)

(* --- export --- *)

let export_cmd =
  let run scenario n seed data wal sync out csv_dir =
    with_engine scenario n seed data wal sync (fun e _ ->
        (match csv_dir with
        | Some dir ->
            List.iter
              (fun (name, count) -> Fmt.pr "wrote %s/%s.csv (%d rows)@." dir name count)
              (Rxv_relational.Csv_io.dump_dir e.Engine.db dir)
        | None -> ());
        if csv_dir = None || out <> None then begin
          let tree = Engine.to_tree ~max_nodes:5_000_000 e in
          match out with
          | Some path ->
              Rxv_xml.Xml_io.to_file path tree;
              Fmt.pr "wrote %s (%d elements)@." path (Tree.size tree)
          | None -> print_string (Rxv_xml.Xml_io.to_string tree)
        end;
        0)
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to FILE (with an XML declaration) instead of stdout.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also dump the base relations as DIR/<relation>.csv \
                (loadable back with --data).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Serialize the published view as an XML document.")
    Term.(const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg
      $ seed_arg $ data_arg $ wal_arg $ sync_arg $ out $ csv_dir)

(* --- stats --- *)

let stats_cmd =
  let run scenario n seed data wal sync =
    with_engine scenario n seed data wal sync (fun e _ ->
        print_stats e;
        0)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print view statistics (the Fig. 10(b) columns).")
    Term.(const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg
      $ seed_arg $ data_arg $ wal_arg $ sync_arg)

(* --- query --- *)

let query_cmd =
  let run scenario n seed data wal sync path =
    match parse_path path with
    | Error msg ->
        Fmt.epr "%s@." msg;
        2
    | Ok p ->
        with_engine scenario n seed data wal sync (fun e _ ->
        let r = Engine.query e p in
        Fmt.pr "r[[p]]: %d node(s)@." (List.length r.Dag_eval.selected);
        List.iter
          (fun (ty, id) ->
            let node = Rxv_dag.Store.node e.Engine.store id in
            Fmt.pr "  %s %a@." ty Rxv_relational.Tuple.pp
              node.Rxv_dag.Store.attr)
          r.Dag_eval.selected_types;
        Fmt.pr "Ep(r): %d arrival edge(s)@."
          (List.length r.Dag_eval.arrival_edges);
        (match r.Dag_eval.side_effects_delete with
        | [] -> Fmt.pr "delete side effects: none@."
        | l ->
            Fmt.pr "delete side effects: %d unreached occurrence parent(s)@."
              (List.length l));
        (match r.Dag_eval.side_effects with
        | [] -> Fmt.pr "insert side effects: none@."
        | l ->
            Fmt.pr "insert side effects: %d unselected occurrence parent(s)@."
              (List.length l));
        0)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath query on the compressed view.")
    Term.(const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg
      $ seed_arg $ data_arg $ wal_arg $ sync_arg $ path_arg 0)

(* --- delete --- *)

let policy_arg =
  Arg.(
    value & flag
    & info [ "abort-on-side-effects" ]
        ~doc:"Reject the update if it has side effects (default: proceed \
              under the revised semantics of Section 2.1).")

let report_outcome e = function
  | Ok (r : Engine.report) ->
      Fmt.pr "applied; ΔR = %a@." Rxv_relational.Group_update.pp
        r.Engine.delta_r;
      if r.Engine.side_effects <> [] then
        Fmt.pr "(carried out at every occurrence: %d unselected parents)@."
          (List.length r.Engine.side_effects);
      (match Engine.check_consistency e with
      | Ok () -> Fmt.pr "consistency: OK@."
      | Error m -> Fmt.pr "consistency FAILED: %s@." m);
      0
  | Error rej ->
      Fmt.pr "rejected: %a@." Engine.pp_rejection rej;
      1

let delete_cmd =
  let run scenario n seed data wal sync abort path =
    match parse_path path with
    | Error msg ->
        Fmt.epr "%s@." msg;
        2
    | Ok p ->
        with_engine scenario n seed data wal sync (fun e _ ->
            let policy = if abort then `Abort else `Proceed in
            report_outcome e (Engine.apply ~policy e (Xupdate.Delete p)))
  in
  Cmd.v
    (Cmd.info "delete" ~doc:"Delete through the view: delete XPATH.")
    Term.(
      const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg $ seed_arg
      $ data_arg $ wal_arg $ sync_arg $ policy_arg $ path_arg 0)

(* --- insert --- *)

let insert_cmd =
  let run scenario n seed data wal sync abort etype fields into =
    match parse_path into with
    | Error msg ->
        Fmt.epr "%s@." msg;
        2
    | Ok p ->
        with_engine scenario n seed data wal sync (fun e _ ->
            (* coerce the textual fields against $etype's inferred types *)
            let tys =
              try Rxv_atg.Atg.attr_tys e.Engine.atg etype
              with Rxv_atg.Atg.Atg_error _ -> [||]
            in
            if Array.length tys <> List.length fields then begin
              Fmt.epr "element type %s expects %d attribute field(s)@." etype
                (Array.length tys);
              2
            end
            else begin
              let attr =
                Array.of_list
                  (List.mapi
                     (fun i s ->
                       match tys.(i) with
                       | Value.TInt -> Value.Int (int_of_string s)
                       | Value.TStr -> Value.Str s
                       | Value.TBool -> Value.Bool (bool_of_string s))
                     fields)
              in
              let policy = if abort then `Abort else `Proceed in
              report_outcome e
                (Engine.apply ~policy e
                   (Xupdate.Insert { etype; attr; path = p }))
            end)
  in
  let etype =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TYPE" ~doc:"Element type to insert.")
  in
  let fields =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"FIELDS" ~doc:"Semantic attribute fields.")
  in
  let into =
    Arg.(
      required
      & opt (some string) None
      & info [ "into" ] ~docv:"XPATH" ~doc:"Target path.")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"Insert through the view: insert (TYPE, FIELDS) into XPATH.")
    Term.(
      const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg $ seed_arg
      $ data_arg $ wal_arg $ sync_arg $ policy_arg $ etype $ fields $ into)

(* --- checkpoint --- *)

let checkpoint_cmd =
  let run scenario n seed data wal sync =
    match wal with
    | None ->
        Fmt.epr "checkpoint requires --wal DIR@.";
        2
    | Some _ ->
        with_engine scenario n seed data wal sync (fun e p ->
            let p = Option.get p in
            let bytes = Persist.checkpoint p e in
            Fmt.pr "checkpoint generation %d written (%d bytes), WAL rotated@."
              (Persist.generation p) bytes;
            0)
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Write a new checkpoint of the recovered state and truncate \
             the write-ahead log (requires $(b,--wal)).")
    Term.(
      const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg $ seed_arg
      $ data_arg $ wal_arg $ sync_arg)

(* --- recover --- *)

let recover_cmd =
  let run scenario n seed data wal sync check =
    match wal with
    | None ->
        Fmt.epr "recover requires --wal DIR@.";
        2
    | Some dir -> (
        let p = Persist.open_dir ~sync dir in
        match
          Persist.recover ~seed p (atg_of scenario)
            ~init:(fun () -> init_db scenario n seed data)
        with
        | Error msg ->
            Fmt.epr "recovery failed: %s@." msg;
            3
        | Ok (e, info) ->
            Fmt.pr "recovered %a@." Persist.pp_recovery_info info;
            print_stats e;
            if check then (
              match Engine.check_consistency e with
              | Ok () ->
                  Fmt.pr "consistency: OK@.";
                  0
              | Error m ->
                  Fmt.pr "consistency FAILED: %s@." m;
                  1)
            else 0)
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Also verify the recovered view against republication \
                (the Engine.check_consistency oracle).")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover the engine from $(b,--wal) DIR (newest readable \
             checkpoint + WAL replay, truncating any torn tail) and \
             report what was restored.")
    Term.(
      const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg $ seed_arg
      $ data_arg $ wal_arg $ sync_arg $ check)

(* --- serve --- *)

(* ADDR for --replica-of: HOST:PORT when the suffix parses as a port,
   otherwise a Unix-domain socket path *)
let parse_peer s =
  let module Server = Rxv_server.Server in
  match String.rindex_opt s ':' with
  | Some i -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some port when port > 0 -> Server.Tcp (String.sub s 0 i, port)
      | _ -> Server.Unix_sock s)
  | None -> Server.Unix_sock s

let serve_cmd =
  let run scenario n seed data wal sync socket tcp queue batch failpoints
      fp_seed replica_of follower_name auto_promote peers =
    let module Server = Rxv_server.Server in
    let module Follower = Rxv_replica.Follower in
    let module Failpoint = Rxv_fault.Failpoint in
    let addr =
      match (socket, tcp) with
      | Some path, None -> Some (Server.Unix_sock path)
      | None, Some port -> Some (Server.Tcp ("127.0.0.1", port))
      | None, None -> None
      | Some _, Some _ -> None
    in
    let fp_spec =
      match failpoints with
      | Some s -> Some s
      | None -> Sys.getenv_opt "RXV_FAILPOINTS"
    in
    let fp_err =
      match fp_spec with
      | None -> None
      | Some spec -> (
          Failpoint.seed fp_seed;
          match Failpoint.arm_spec spec with
          | Ok () ->
              Fmt.pr "failpoints armed: %s (seed %d)@." spec fp_seed;
              None
          | Error msg -> Some msg)
    in
    match (addr, fp_err) with
    | _, Some msg ->
        Fmt.epr "bad --failpoints spec: %s@.%s@." msg Failpoint.spec_syntax;
        2
    | None, None ->
        Fmt.epr "serve requires exactly one of --socket PATH or --tcp PORT@.";
        2
    | Some addr, None -> (
        (* unlike [with_engine], recovery here must NOT attach the WAL
           hook: the server attaches it in deferred-sync mode so the
           batcher can pay one fsync per drained batch *)
        let finish_engine e persist =
          let role = if replica_of = None then `Primary else `Replica in
          let config =
            {
              Server.default_config with
              queue_cap = queue;
              batch_cap = batch;
              role;
            }
          in
          let srv = Server.start ~config ?persist addr e in
          let follower =
            Option.map
              (fun primary ->
                let name =
                  match follower_name with
                  | Some n -> n
                  | None ->
                      Printf.sprintf "%s-%d" (Unix.gethostname ())
                        (Unix.getpid ())
                in
                Fmt.pr "replicating from %s as %S%s@." primary name
                  (if persist = None then "" else " (durable)");
                let peers =
                  List.map
                    (fun s ->
                      match String.index_opt s '=' with
                      | Some i ->
                          ( String.sub s 0 i,
                            parse_peer
                              (String.sub s (i + 1) (String.length s - i - 1))
                          )
                      | None -> (s, parse_peer s))
                    peers
                in
                Follower.start ~fp_prefix:"repl" ?persist ?auto_promote ~peers
                  ~name
                  ~primary:(parse_peer primary)
                  ~init:(fun () -> init_db scenario n seed data)
                  ~seed srv)
              replica_of
          in
          Fmt.pr "serving %s (%s, queue=%d batch=%d); send a Shutdown \
                  request to stop@."
            (match addr with
            | Server.Unix_sock p -> "unix:" ^ p
            | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p)
            (match role with `Primary -> "primary" | `Replica -> "replica")
            queue batch;
          (* also stop cleanly on SIGTERM/SIGINT *)
          let on_signal _ = Server.initiate_stop srv in
          (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
           with Invalid_argument _ -> ());
          (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
           with Invalid_argument _ -> ());
          Server.wait srv;
          Option.iter Follower.stop follower;
          Option.iter Persist.close persist;
          (match follower with
          | Some f ->
              Fmt.pr "server stopped; replicated through commit %d@."
                (Follower.after f)
          | None ->
              Fmt.pr "server stopped; %d update group(s) committed@."
                (Rxv_server.Batcher.seq (Server.batcher srv)));
          0
        in
        match wal with
        | None ->
            finish_engine
              (Engine.create ~seed (atg_of scenario)
                 (init_db scenario n seed data))
              None
        | Some dir -> (
            let p = Persist.open_dir ~sync dir in
            match
              Persist.recover ~seed p (atg_of scenario)
                ~init:(fun () -> init_db scenario n seed data)
            with
            | Error msg ->
                Fmt.epr "recovery failed: %s@." msg;
                3
            | Ok (e, info) ->
                Logs.info (fun m ->
                    m "recovered: %a" Persist.pp_recovery_info info);
                finish_engine e (Some p)))
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve on a Unix-domain socket at PATH.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Serve on 127.0.0.1:PORT.")
  in
  let queue =
    Arg.(
      value
      & opt int 128
      & info [ "queue" ] ~docv:"K"
          ~doc:"Update queue bound; a full queue answers Overloaded \
                (backpressure).")
  in
  let batch =
    Arg.(
      value
      & opt int 64
      & info [ "batch" ] ~docv:"K"
          ~doc:"Group-commit bound: how many committed groups may share \
                one WAL fsync.")
  in
  let failpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:"Arm fault-injection sites before serving, e.g. \
                $(b,wal.sync:p=0.02:eio,srv.read:every=97:eintr). Falls \
                back to the RXV_FAILPOINTS environment variable. For \
                chaos testing only.")
  in
  let fp_seed =
    Arg.(
      value
      & opt int 0
      & info [ "fp-seed" ] ~docv:"N"
          ~doc:"Seed for the failpoint trigger RNG (deterministic chaos).")
  in
  let replica_of =
    Arg.(
      value
      & opt (some string) None
      & info [ "replica-of" ] ~docv:"ADDR"
          ~doc:"Run as a read-only replica of the primary at ADDR (a \
                Unix-domain socket path, or HOST:PORT): stream its \
                committed WAL, apply it locally, serve reads from the \
                replicated state, refuse writes (answering Fenced with \
                the primary's address). The primary must serve with \
                $(b,--wal). With a local $(b,--wal) DIR the replica also \
                mirrors the stream verbatim to its own log, making it \
                promotable ($(b,rxv promote)). The scenario flags must \
                match the primary's.")
  in
  let auto_promote =
    Arg.(
      value
      & opt (some float) None
      & info [ "auto-promote" ] ~docv:"SECS"
          ~doc:"Failover election (replicas only): when the primary has \
                been unreachable for SECS seconds, probe the $(b,--peer) \
                replicas and self-promote unless one of them has applied \
                more commits (ties break by $(b,--name)).")
  in
  let peers =
    Arg.(
      value
      & opt_all string []
      & info [ "peer" ] ~docv:"[NAME=]ADDR"
          ~doc:"Another replica's client address for the $(b,--auto-promote) \
                election; repeatable. NAME should match that replica's \
                $(b,--name) so ties break consistently.")
  in
  let follower_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Follower identity reported to the primary (shown by \
                $(b,rxv replicas); default: host-pid).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the view-update service: concurrent XPath reads, \
             single-writer group-commit updates with backpressure, and a \
             CRC-framed wire protocol — as the write primary or, with \
             $(b,--replica-of), a WAL-streaming read replica (see also \
             $(b,stress --server)).")
    Term.(
      const (fun () -> run) $ setup_logs $ scenario_arg $ size_arg $ seed_arg
      $ data_arg $ wal_arg $ sync_arg $ socket $ tcp $ queue $ batch
      $ failpoints $ fp_seed $ replica_of $ follower_name $ auto_promote
      $ peers)

(* --- promote --- *)

let promote_cmd =
  let run socket tcp =
    let module Client = Rxv_server.Client in
    let connect () =
      match (socket, tcp) with
      | Some path, None -> Some (Client.connect ~retries:3 path)
      | None, Some port -> Some (Client.connect_tcp ~retries:3 "127.0.0.1" port)
      | None, None | Some _, Some _ -> None
    in
    match connect () with
    | None ->
        Fmt.epr "promote requires exactly one of --socket PATH or --tcp PORT@.";
        2
    | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "cannot reach replica: %s@." (Unix.error_message e);
        1
    | Some c -> (
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        match Client.promote c with
        | Ok (epoch, seq) ->
            Fmt.pr
              "promoted: primary for epoch %d; first new commit will be %d@."
              epoch (seq + 1);
            0
        | Error m ->
            Fmt.epr "promotion refused: %s@." m;
            1)
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"The replica's Unix-domain socket.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"The replica at 127.0.0.1:PORT.")
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Failover: make the addressed replica the new primary. Its \
             follower loop stops, the replication epoch is bumped and \
             durably logged, and it starts accepting writes; the deposed \
             primary is fenced off by the epoch stamp and rejoins as a \
             follower (truncating any unreplicated suffix). Promote the \
             most-caught-up replica — see $(b,rxv replicas).")
    Term.(const (fun () -> run) $ setup_logs $ socket $ tcp)

(* --- replicas --- *)

let replicas_cmd =
  let run socket tcp =
    let module Client = Rxv_server.Client in
    let module Proto = Rxv_server.Proto in
    let connect () =
      match (socket, tcp) with
      | Some path, None -> Some (Client.connect ~retries:3 path)
      | None, Some port -> Some (Client.connect_tcp ~retries:3 "127.0.0.1" port)
      | None, None | Some _, Some _ -> None
    in
    match connect () with
    | None ->
        Fmt.epr
          "replicas requires exactly one of --socket PATH or --tcp PORT@.";
        2
    | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "cannot reach server: %s@." (Unix.error_message e);
        1
    | Some c -> (
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        match Client.stats c with
        | Error m ->
            Fmt.epr "stats failed: %s@." m;
            1
        | Ok st ->
            let gauge k = List.assoc_opt k st.Proto.st_gauges in
            let epoch_sfx =
              match gauge "epoch" with
              | Some e -> Printf.sprintf ", epoch %d" e
              | None -> ""
            in
            (match (gauge "repl_seq", gauge "repl_head") with
            | Some seq, Some head ->
                Fmt.pr "primary: commit %d, durable head %d%s@." seq head
                  epoch_sfx
            | _ -> (
                (* a replica reports its own stream position instead *)
                match (gauge "repl_after", gauge "repl_lag") with
                | Some after, Some lag ->
                    Fmt.pr "replica: applied commit %d, lag %d%s@." after lag
                      epoch_sfx
                | _ ->
                    Fmt.pr "no replication state (volatile server?)@."));
            (* rows keyed repl_follower_<name>_<field> *)
            let prefix = "repl_follower_" in
            let plen = String.length prefix in
            let rows = Hashtbl.create 8 in
            let order = ref [] in
            List.iter
              (fun (k, v) ->
                if String.length k > plen && String.sub k 0 plen = prefix then
                  let rest = String.sub k plen (String.length k - plen) in
                  match String.rindex_opt rest '_' with
                  | None -> ()
                  | Some i ->
                      let name = String.sub rest 0 i in
                      let field =
                        String.sub rest (i + 1) (String.length rest - i - 1)
                      in
                      if not (Hashtbl.mem rows name) then begin
                        Hashtbl.add rows name (Hashtbl.create 4);
                        order := name :: !order
                      end;
                      Hashtbl.replace (Hashtbl.find rows name) field v)
              st.Proto.st_gauges;
            (match List.rev !order with
            | [] -> Fmt.pr "no followers registered@."
            | names ->
                Fmt.pr "%-20s %10s %8s %7s %10s %8s@." "FOLLOWER" "AFTER"
                  "LAG" "EPOCH" "CONNECTED" "RESETS";
                List.iter
                  (fun name ->
                    let fields = Hashtbl.find rows name in
                    let get f =
                      match Hashtbl.find_opt fields f with
                      | Some v -> string_of_int v
                      | None -> "-"
                    in
                    Fmt.pr "%-20s %10s %8s %7s %10s %8s@." name (get "after")
                      (get "lag") (get "epoch")
                      (match Hashtbl.find_opt fields "connected" with
                      | Some 1 -> "yes"
                      | Some _ -> "no"
                      | None -> "-")
                      (get "resets"))
                  names);
            0)
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Ask the server on the Unix-domain socket at PATH.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Ask the server on 127.0.0.1:PORT.")
  in
  Cmd.v
    (Cmd.info "replicas"
       ~doc:"Show a running server's replication state: its commit/durable \
             positions and, on a primary, each registered follower's \
             position, lag, connection state and reset count.")
    Term.(const (fun () -> run) $ setup_logs $ socket $ tcp)

let () =
  let info =
    Cmd.info "rxv" ~version:"1.0"
      ~doc:"Updating recursive XML views of relations (Choi, Cong, Fan, \
            Viglas — ICDE 2007)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ show_cmd; stats_cmd; export_cmd; query_cmd; delete_cmd;
            insert_cmd; checkpoint_cmd; recover_cmd; serve_cmd;
            promote_cmd; replicas_cmd ]))
