(* Benchmark driver: one workload per run, one thread, at most one
   connection.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   prints a table of metrics and, as its last line, one JSON object with
   the keys correct, attempted, failed and metrics. --trace 0 gives the
   end-to-end metrics; --trace 1 first runs the same workload untraced
   in a fresh process, then runs it traced and gives the per-layer
   metrics, with the tracing overhead of every end-to-end metric.
   --workload all runs every workload in its own process; --selftest
   checks the benchmark itself (see [selftest]). *)

open Common

let workloads = [ "fig11_mix"; "serve_mixed"; "replica_apply" ]

let e2e_units =
  [ ("setup_s", "s"); ("update_mean_ms", "ms"); ("update_p90_ms", "ms");
    ("ops_per_s", "1/s"); ("query_p50_ms", "ms"); ("query_p90_ms", "ms");
    ("peak_rss_mb", "MB") ]

(* every per-layer metric, in output order; a workload that does not
   exercise a layer reports 0 for it. Times are at the reference host
   speed, except host.slice_ms, the run's raw median calibration slice. *)
let layer_units =
  [ ("engine.apply_group_ms", "ms"); ("engine.apply_group_self_ms", "ms");
    ("eval_cache.eval_ms", "ms"); ("eval_cache.hits", "count/update");
    ("eval_cache.partials", "count/update"); ("eval_cache.misses", "count/update");
    ("eval_cache.reuse_ratio", "ratio"); ("engine.translate_ms", "ms");
    ("delta_r.ops_per_update", "count/update"); ("vinsert.encode_ms", "ms");
    ("vinsert.solve_ms", "ms"); ("vinsert.skeleton_hit_ratio", "ratio");
    ("sat.clauses_per_insert", "count/insert"); ("maintain.ms", "ms");
    ("base_update.apply_ms", "ms"); ("base_update.affected_parents", "count/update");
    ("snapshot.capture_ms", "ms"); ("snapshot.query_ms", "ms");
    ("update.selected_nodes", "count/update"); ("query.result_nodes", "count/query");
    ("proto.overhead_ms", "ms"); ("persist.wal_syncs_per_update", "count/update");
    ("batcher.batch_size", "count/batch"); ("batcher.rejected", "count");
    ("setup.generate_ms", "ms"); ("setup.engine_create_ms", "ms");
    ("setup.server_start_ms", "ms"); ("setup.warmup_ms", "ms");
    ("update.minor_words", "words"); ("engine.apply_group.minor_words", "words");
    ("base_update.apply.minor_words", "words"); ("snapshot.capture.minor_words", "words");
    ("snapshot.query.minor_words", "words"); ("gc.major_collections", "count/update");
    ("trace.update_coverage", "ratio"); ("host.slice_ms", "ms") ]
  @ List.map (fun (m, u) -> ("trace.overhead." ^ m, u)) e2e_units

let e2e (r : result) =
  let u = Array.map (fun s -> s.ms) r.updates
  and q = Array.map (fun s -> s.ms) r.queries in
  [ ("setup_s", median r.setups_s); ("update_mean_ms", mean u);
    ("update_p90_ms", quantile u 0.9);
    ("ops_per_s", float_of_int r.ops /. r.elapsed_s);
    ("query_p50_ms", quantile q 0.5); ("query_p90_ms", quantile q 0.9);
    ("peak_rss_mb", r.rss_mb) ]

(* each reported percentile, with the share of samples near it *)
let steadiness (r : result) =
  List.map
    (fun (name, xs, q) ->
      let v, share, ok = near_share (Array.map (fun s -> s.ms) xs) q in
      Printf.sprintf "%s %s %.4g: %.0f%% of samples within 25%%" (if ok then "steady" else "GAP")
        name v (100. *. share))
    [ ("update_p90_ms", r.updates, 0.9);
      ("query_p50_ms", r.queries, 0.5); ("query_p90_ms", r.queries, 0.9) ]

(* sample counts and the mean latency of each op kind *)
let kinds (xs : sample array) =
  let t = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let n, sum = Option.value ~default:(0, 0.) (Hashtbl.find_opt t s.kind) in
      Hashtbl.replace t s.kind (n + 1, sum +. s.ms))
    xs;
  Hashtbl.fold (fun k (n, sum) acc -> (k, n, sum /. float_of_int n) :: acc) t []
  |> List.sort compare

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* [metrics]: (name, value, unit) *)
let print_json ~correct ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) failed (String.concat ", " body)

let with_units units metrics = List.map (fun (k, v) -> (k, v, List.assoc k units)) metrics

let print_metrics tag metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" tag name v unit) metrics

let run_workload ~rxv ~seed ~seconds name =
  match name with
  | "fig11_mix" -> Inproc.fig11_mix ~seed ~seconds
  | "replica_apply" -> Inproc.replica_apply ~seed ~seconds
  | "serve_mixed" -> Served.serve_mixed ~rxv ~seed ~seconds
  | w -> fail "unknown workload %s" w

(* run this program again as a fresh process; its stdout lines and
   whether it exited with 0 *)
let child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (out, Unix.close_process_in ic = Unix.WEXITED 0)

(* the "<tag> name value unit" lines of a child's table *)
let parse_metrics tag lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ t; name; v; _ ] when t = tag -> Some (name, float_of_string v)
      | _ -> None)
    lines

let common_args ~rxv ~seed ~seconds ~trace w =
  [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; string_of_int trace; "--rxv"; rxv ]

let single ~rxv ~seed ~seconds ~trace w =
  let untraced =
    if trace = 0 then []
    else begin
      (* the untraced twin, for the tracing overhead *)
      let out, ok = child (common_args ~rxv ~seed ~seconds ~trace:0 w) in
      if not ok then fail "the untraced run of %s failed" w;
      print_endline "# untraced twin:";
      List.iter
        (fun l -> if String.length l > 6 && String.sub l 0 6 = "check " then print_endline l)
        out;
      parse_metrics "e2e" out
    end
  in
  Trace.enabled := trace = 1;
  let r = run_workload ~rxv ~seed ~seconds w in
  let m = e2e r in
  Printf.printf "# %s seed=%d trace=%d: %s; %d updates, %d queries, %d ops in %.2f s\n" w
    seed trace r.summary (Array.length r.updates) (Array.length r.queries) r.ops r.elapsed_s;
  List.iter
    (fun (k, n, ms) -> Printf.printf "#   %-24s %6d samples, mean %.3f ms\n" k n ms)
    (kinds r.updates @ kinds r.queries);
  List.iter (fun l -> Printf.printf "check %s\n" l) (steadiness r);
  (* every time at the reference host speed (see Calib), set-up times by
     the speed during set-up; the raw times are printed too *)
  let f = Calib.factor () and fs = Calib.factor ~setup:true () in
  let scale k u v =
    let setup = k = "setup_s" || String.starts_with ~prefix:"setup." k in
    Calib.scale (if setup then fs else f) u v
  in
  print_metrics "raw" (with_units e2e_units m);
  Printf.printf
    "# host: %d + %d calibration slices, median %.4f ms (set-up %.4f ms), factor %.4f (set-up %.4f)\n"
    (List.length !Calib.slices) (List.length !Calib.setup_slices) (Calib.median_ms ())
    (Calib.median_ms ~setup:true ()) f fs;
  let m = List.map (fun (k, v) -> (k, scale k (List.assoc k e2e_units) v)) m in
  print_metrics "e2e" (with_units e2e_units m);
  if trace = 0 then print_json ~correct:true ~failed:0 (with_units e2e_units m)
  else begin
    let overhead =
      List.map
        (fun (k, v) ->
          match List.assoc_opt k untraced with
          | Some u -> ("trace.overhead." ^ k, v -. u)
          | None -> fail "the untraced run reported no %s" k)
        m
    in
    let layers =
      List.map
        (fun (k, u) ->
          ( k,
            if k = "host.slice_ms" then Calib.median_ms ()
            else
              match List.assoc_opt k r.layers with
              | Some v -> scale k u v
              | None -> Option.value ~default:0. (List.assoc_opt k overhead) ))
        layer_units
    in
    ensure_out_dir ();
    let spans = Printf.sprintf "%s/%s-seed%d-spans.tsv" out_dir w seed in
    Trace.write spans;
    Printf.printf "# spans written to %s\n" spans;
    print_metrics "layer" (with_units layer_units layers);
    print_json ~correct:true ~failed:0 (with_units layer_units layers)
  end

(* every workload, each in its own process *)
let all ~rxv ~seed ~seconds ~trace =
  let tag = if trace = 0 then "e2e" else "layer" in
  let units = if trace = 0 then e2e_units else layer_units in
  let results =
    List.map
      (fun w ->
        let out, ok = child (common_args ~rxv ~seed ~seconds ~trace w) in
        List.iter print_endline (List.filter (fun l -> l = "" || l.[0] <> '{') out);
        if not ok then Printf.printf "# %s FAILED\n" w;
        (* the child's JSON line carries its op count *)
        List.iter
          (fun l ->
            try Scanf.sscanf l "{\"correct\": %_s \"attempted\": %d," (fun n -> attempted := !attempted + n)
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
          out;
        (w, ok, parse_metrics tag out))
      workloads
  in
  let metrics =
    List.concat_map
      (fun (w, _, m) -> List.map (fun (k, v, u) -> (w ^ "." ^ k, v, u)) (with_units units m))
      results
  in
  let failed = List.length (List.filter (fun (_, ok, _) -> not ok) results) in
  print_json ~correct:(failed = 0) ~failed metrics;
  if failed > 0 then exit 1

(* Self-test of the benchmark: for every workload, two traced runs with
   one seed and one with another. Each traced run also runs the
   untraced twin, and every run ends with the correctness gate, so the
   gate runs on both seeds. The two same-seed runs must reproduce every
   count exactly and minor words within 0.1%; no reported percentile may
   fall in a gap; spans must cover at least 95% of in-process updates
   (see [update_coverage]). *)
let counts =
  [ "eval_cache.hits"; "eval_cache.partials"; "eval_cache.misses"; "eval_cache.reuse_ratio";
    "vinsert.skeleton_hit_ratio"; "delta_r.ops_per_update"; "sat.clauses_per_insert";
    "base_update.affected_parents"; "update.selected_nodes"; "query.result_nodes";
    "persist.wal_syncs_per_update"; "batcher.batch_size"; "batcher.rejected" ]

let words =
  [ "update.minor_words"; "engine.apply_group.minor_words"; "base_update.apply.minor_words";
    "snapshot.capture.minor_words"; "snapshot.query.minor_words" ]

let selftest ~rxv ~seed ~seconds =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems; print_endline ("FAIL " ^ m)) fmt in
  List.iter
    (fun w ->
      let run s =
        let out, ok = child (common_args ~rxv ~seed:s ~seconds ~trace:1 w) in
        if not ok then problem "%s seed %d: run failed" w s;
        (* the traced run's own percentiles and its untraced twin's *)
        List.iter
          (fun l ->
            if String.length l > 10 && String.sub l 0 10 = "check GAP " then
              problem "%s seed %d: percentile in a gap: %s" w s l)
          out;
        parse_metrics "layer" out
      in
      let a = run seed and b = run seed in
      ignore (run (seed + 1));
      let get m k = Option.value ~default:nan (List.assoc_opt k m) in
      List.iter
        (fun k -> if get a k <> get b k then problem "%s: %s differs: %g vs %g" w k (get a k) (get b k))
        counts;
      List.iter
        (fun k ->
          let x = get a k and y = get b k in
          if Float.abs (x -. y) > 0.001 *. Float.abs x then
            problem "%s: %s differs by more than 0.1%%: %g vs %g" w k x y)
        words;
      if w <> "serve_mixed" && get a "trace.update_coverage" < 0.95 then
        problem "%s: spans cover only %.3f of the 5%% least covered updates" w
          (get a "trace.update_coverage");
      Printf.printf "# selftest %s done\n%!" w)
    workloads;
  if !problems <> [] then begin
    Printf.printf "selftest: %d problem(s)\n" (List.length !problems);
    exit 1
  end
  else print_endline "selftest: ok"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rxv = ref "_build/default/bin/rxv_cli.exe" and self = ref false in
  let usage = "perfbench --workload (fig11_mix|serve_mixed|replica_apply|all) --seed N --seconds S --trace 0|1 [--rxv PATH] | --selftest" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N seed of the inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rxv", Arg.Set_string rxv, "PATH the rxv_cli executable serve_mixed starts");
      ("--selftest", Arg.Set self, " check the benchmark itself") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not !self) && not (List.mem !workload ("all" :: workloads)) || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  try
    if !self then selftest ~rxv:!rxv ~seed:!seed ~seconds:!seconds
    else if !workload = "all" then all ~rxv:!rxv ~seed:!seed ~seconds:!seconds ~trace:!trace
    else single ~rxv:!rxv ~seed:!seed ~seconds:!seconds ~trace:!trace !workload
  with e ->
    let msg = match e with Failed m -> m | e -> Printexc.to_string e in
    Printf.printf "# FAILED: %s\n" msg;
    print_json ~correct:false ~failed:1 [];
    exit 1
