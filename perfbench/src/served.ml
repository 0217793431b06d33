(* serve_mixed: what one client of the service sees. The driver starts
   `rxv serve -s synth -n 1000 --wal DIR --sync always` as a child,
   connects one Unix-socket client and replays update groups and reads.

   No timed interval, and nothing inside set-up, waits on a timer:
   readiness is the child's `serving` line, read with a blocking read;
   the client connects once, without retries, after that line; the
   server is stopped with a Shutdown request, and only the wait for its
   exit (after measurement) has a deadline, past which it is killed. *)

open Common
module Client = Rxv_server.Client
module Proto = Rxv_server.Proto
module Metrics = Rxv_server.Metrics
module Persist = Rxv_persist.Persist

let n = 1000

(* 4-op groups per cycle: 2 fresh-key W2 inserts and 2 deletes of the
   previous group's inserts. A group's cost depends on its insert paths,
   so a cycle draws many: 256 of them. *)
let groups = 128

(* the warm-up replays the cycle's last groups, after one that only
   inserts; the server's caches are steady after the first group *)
let warmup_groups = 16

(* every read path is read 4 times after each group: the first read
   revalidates the cached plan against the new snapshot, the other 3
   are answered from the snapshot's memo *)
let reads_per_path = 4

type server = {
  pid : int;
  out : Unix.file_descr;  (** the child's stdout *)
  dir : string;  (** its WAL directory *)
  c : Client.t;
}

(* children still running, killed if the driver dies first *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~rxv ~tag =
  ensure_out_dir ();
  let dir = Printf.sprintf "%s/wal-%d-%d" out_dir (Unix.getpid ()) tag in
  (* relative, so the path stays far below the socket-name limit *)
  let sock = Printf.sprintf "%s/rxv-%d-%d.sock" out_dir (Unix.getpid ()) tag in
  if Sys.file_exists dir then remove_tree dir;
  if Sys.file_exists sock then Sys.remove sock;
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [| rxv; "serve"; "-s"; "synth"; "-n"; string_of_int n; "--seed";
       string_of_int data_seed; "--wal"; dir; "--sync"; "always"; "--socket"; sock |]
  in
  let pid = Unix.create_process rxv args Unix.stdin w Unix.stderr in
  live := pid :: !live;
  Unix.close w;
  (* byte-wise, so nothing past the line is buffered away from [out] *)
  let line = Buffer.create 128 and b = Bytes.create 1 in
  let rec ready () =
    if Unix.read r b 0 1 = 0 then fail "server exited before it was serving"
    else if Bytes.get b 0 <> '\n' then (Buffer.add_char line (Bytes.get b 0); ready ())
    else if String.length (Buffer.contents line) >= 8
            && String.sub (Buffer.contents line) 0 8 = "serving " then ()
    else (Buffer.clear line; ready ())
  in
  ready ();
  { pid; out = r; dir; c = Client.connect ~retries:0 sock }

let stop s =
  Client.shutdown s.c;
  Client.close s.c;
  (* the child's stdout reaches EOF when it exits *)
  let deadline = Trace.now_ns () in
  let buf = Bytes.create 4096 in
  let rec drain () =
    let left = 10. -. Trace.s_since deadline in
    if left <= 0. then Unix.kill s.pid Sys.sigkill
    else
      match Unix.select [ s.out ] [] [] left with
      | [], _, _ -> Unix.kill s.pid Sys.sigkill
      | _ -> if Unix.read s.out buf 0 (Bytes.length buf) > 0 then drain ()
  in
  drain ();
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  Unix.close s.out

type st = {
  srv : server;
  d : Synth.dataset;
  mutable req_seq : int;
  mutable next_fresh : int;
  mutable pending : (int * Ast.path) list;  (** the last group's inserts *)
}

let delta_ops : int list ref = ref []
let result_sizes : int list ref = ref []

let group st ops =
  let ops_n = List.length ops in
  attempted := !attempted + ops_n;
  st.req_seq <- st.req_seq + 1;
  let req =
    Proto.Update
      { client = Client.client_id st.srv.c; req_seq = st.req_seq; epoch = 0;
        policy = `Proceed; ops }
  in
  Trace.next_op ();
  let resp, ms =
    Trace.timed "update" (fun () ->
        Trace.span "client.update" (fun () -> Client.request st.srv.c req))
  in
  match resp with
  | Proto.Applied { reports; delta_ops = dr; _ } when reports = ops_n && dr > 0 ->
      record_update ~n:ops_n "group" ms;
      if !Trace.in_run then delta_ops := dr :: !delta_ops
  | r -> fail "update group answered %s" (Fmt.str "%a" Proto.pp_response r)

let delete_pending st =
  List.map
    (fun (k, p) -> Proto.Delete (Ast.to_string (child_path p k)))
    st.pending

(* group g of the cycle: fresh keys under insert paths 2g and 2g+1, and
   the deletes of the previous group's keys (none for the first group of
   a set-up) *)
let update_group st ins_paths g =
  let news =
    List.map
      (fun p ->
        let k = Synth.fresh_key st.d st.next_fresh in
        st.next_fresh <- st.next_fresh + 1;
        (k, p))
      [ ins_paths.(2 * g); ins_paths.((2 * g) + 1) ]
  in
  let inserts =
    List.map
      (fun (k, p) ->
        Proto.Insert { etype = "c"; attr = Synth.c_attr k; path = Ast.to_string p })
      news
  in
  group st (inserts @ delete_pending st);
  st.pending <- news

let read st kind path ~check =
  incr attempted;
  Trace.next_op ();
  let res, ms =
    Trace.timed "query" (fun () ->
        Trace.span "client.query" (fun () -> Client.query st.srv.c path))
  in
  match res with
  | Ok (count, _) ->
      check count;
      if !Trace.in_run then result_sizes := count :: !result_sizes;
      record_query kind ms
  | Error m -> fail "query %s failed: %s" path m

(* group g, then the reads; their counts are recorded the first time a
   position is run and must repeat in every later cycle *)
let step st ~ins_paths ~reads ~expected g =
  update_group st ins_paths g;
  for r = 0 to reads_per_path - 1 do
    Array.iteri
      (fun j path ->
        read st
          (if r = 0 then "revalidate" else "memo")
          path
          ~check:(same_as_first expected g j))
      reads
  done

let stats st =
  match Client.stats st.srv.c with
  | Ok s -> s
  | Error m -> fail "STATS failed: %s" m

(* per-layer view of the server: client spans plus STATS deltas *)
let layers ~(s0 : Proto.server_stats) ~(s1 : Proto.server_stats) ~n_updates =
  let counter s name = Option.value ~default:0 (List.assoc_opt name s.Proto.st_counters) in
  let d name = counter s1 name - counter s0 name in
  (* total service time (µs) and count of one request kind *)
  let served s kind =
    match List.find_opt (fun m -> m.Metrics.s_kind = kind) s.Proto.st_latencies with
    | Some m -> (float_of_int (m.Metrics.s_mean_us * m.Metrics.s_count), m.Metrics.s_count)
    | None -> (0., 0)
  in
  let service_us, served_n =
    List.fold_left
      (fun (us, n) kind ->
        let us1, n1 = served s1 kind and us0, n0 = served s0 kind in
        (us +. us1 -. us0, n + n1 - n0))
      (0., 0) [ "update"; "query" ]
  in
  let spans = Trace.run_spans () in
  let client_ms =
    List.fold_left
      (fun acc s ->
        if s.Trace.name = "client.update" || s.Trace.name = "client.query" then
          acc +. Trace.dur_ms s
        else acc)
      0. spans
  in
  let per_update x = float_of_int x /. float_of_int n_updates in
  let hits = d "cache_hits" and partials = d "cache_partials" and misses = d "cache_misses" in
  let sk_hits = d "sat_skeleton_hits" and sk_misses = d "sat_skeleton_misses" in
  [
    ("eval_cache.hits", per_update hits);
    ("eval_cache.partials", per_update partials);
    ("eval_cache.misses", per_update misses);
    ("eval_cache.reuse_ratio", ratio (hits + partials) (hits + partials + misses));
    ("delta_r.ops_per_update", mean (Array.of_list (List.map float_of_int !delta_ops)));
    ("vinsert.skeleton_hit_ratio", ratio sk_hits (sk_hits + sk_misses));
    ("query.result_nodes", mean (Array.of_list (List.map float_of_int !result_sizes)));
    ( "proto.overhead_ms",
      if served_n = 0 then 0.
      else (client_ms -. (service_us /. 1e3)) /. float_of_int served_n );
    ("persist.wal_syncs_per_update", per_update (d "wal_syncs"));
    ("batcher.batch_size", ratio (d "batched_updates") (d "batches"));
    ("batcher.rejected", float_of_int (d "rejected"));
    ("setup.server_start_ms", setup_p50 "setup.server_start");
    ("setup.warmup_ms", setup_p50 "setup.warmup");
    ("trace.update_coverage", update_coverage ());
  ]

let serve_mixed ~rxv ~seed ~seconds =
  (* the op list, from a local copy of the dataset the server generates *)
  let d = dataset ~n in
  let e = Engine.create ~seed:data_seed (Synth.atg ()) d.Synth.db in
  let ins_paths =
    Array.of_list
      (List.map Rxv_core.Xupdate.path_of
         (Updates.insertions d e.Engine.store Updates.W2 ~count:(2 * groups) ~seed ()))
  in
  let reads = Array.map Ast.to_string (read_paths e.Engine.store Updates.W1) in
  let expected = Array.make_matrix groups (Array.length reads) (-1) in
  let tag = ref 0 in
  let setups_s, st =
    setups ~runs:5
      ~discard:(fun st ->
        stop st.srv;
        remove_tree st.srv.dir)
      ~setup:(fun () ->
        incr tag;
        let srv =
          Trace.span "setup.server_start" (fun () -> spawn ~rxv ~tag:!tag)
        in
        let st = { srv; d; req_seq = 0; next_fresh = 0; pending = [] } in
        Trace.span "setup.warmup" (fun () ->
            for g = groups - warmup_groups - 1 to groups - 1 do
              step st ~ins_paths ~reads ~expected g
            done);
        st)
  in
  let s0 = stats st in
  let cycles, elapsed, rss =
    timed_loop
      ~rss:(fun () -> vm_hwm_mb (string_of_int st.srv.pid))
      ~cycle:(fun () ->
        for g = 0 to groups - 1 do
          step st ~ins_paths ~reads ~expected g
        done)
      ~seconds
  in
  let s1 = stats st in
  group st (delete_pending st);
  stop st.srv;
  (* correctness gate: recover the run's WAL offline and check it *)
  let p = Persist.open_dir st.srv.dir in
  (match
     Persist.recover ~seed:data_seed p (Synth.atg ()) ~init:(fun () -> (dataset ~n).Synth.db)
   with
  | Error m -> fail "recovery of %s failed: %s" st.srv.dir m
  | Ok (e, _) -> check_final e ~n ~fresh:st.next_fresh);
  Persist.close p;
  remove_tree st.srv.dir;
  let updates = Array.of_list (List.rev !updates) in
  {
    setups_s;
    updates;
    queries = Array.of_list (List.rev !queries);
    ops = !ops;
    elapsed_s = elapsed;
    rss_mb = rss;
    layers =
      (if !Trace.enabled then layers ~s0 ~s1 ~n_updates:(Array.length updates) else []);
    summary =
      Printf.sprintf "|C|=%d, %d setups, %d cycles of %d groups" n
        (Array.length setups_s) cycles groups;
  }
