(* What every workload shares: samples and results, the set-up and
   timed-loop skeletons, failure accounting, and the final-state check. *)

module Engine = Rxv_core.Engine
module Database = Rxv_relational.Database
module Relation = Rxv_relational.Relation
module Value = Rxv_relational.Value
module Synth = Rxv_workload.Synth
module Updates = Rxv_workload.Updates
module Ast = Rxv_xpath.Ast

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* ops issued anywhere in the run (warm-up, timed loop, restore) *)
let attempted = ref 0

type sample = { kind : string; ms : float }

(* samples of the timed loop; ops counts every op of the mix *)
let updates : sample list ref = ref []
let queries : sample list ref = ref []
let ops = ref 0

let record_update ?(n = 1) kind ms =
  Calib.tick ();
  if !Trace.in_run then begin
    updates := { kind; ms } :: !updates;
    ops := !ops + n
  end

let record_query kind ms =
  Calib.tick ();
  if !Trace.in_run then begin
    queries := { kind; ms } :: !queries;
    incr ops
  end

type result = {
  setups_s : float array;  (** one entry per full set-up *)
  updates : sample array;  (** one per acknowledged update group *)
  queries : sample array;
  ops : int;  (** every op of the mix in the timed loop *)
  elapsed_s : float;  (** length of the timed loop *)
  rss_mb : float;
      (** VmHWM of the process that holds the engine, after the first
          timed cycle *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  summary : string;  (** sizes and cycle count, for the human table *)
}

(* Set-up is timed [runs] times per run and reported as a median: one
   start of a process or engine is too short to be steady. *)
let setups ~runs ~(setup : unit -> 'a) ~(discard : 'a -> unit) : float array * 'a =
  let times = Array.make runs 0. in
  Calib.in_setup := true;
  let rec go i =
    Gc.compact ();
    Calib.slice ();
    let c0 = !Calib.spent_ms in
    let t0 = Trace.now_ns () in
    let st = setup () in
    times.(i) <- Trace.s_since t0 -. ((!Calib.spent_ms -. c0) /. 1e3);
    if i + 1 < runs then begin
      discard st;
      go (i + 1)
    end
    else st
  in
  let st = go 0 in
  Calib.in_setup := false;
  (times, st)

(* Replay whole cycles of the op list, at least two, until [seconds]
   have passed; the loop only stops on a cycle boundary, so every run
   ends in the same state and per-op rates are the same in every cycle.
   A fig11_mix cycle takes 14–21 s: with one cycle allowed, a run would
   do one or two of them as the host's speed goes. [rss] is read
   once, after the first cycle: fresh-key inserts leave rows behind, so
   the high-water mark kept growing with the number of cycles a run fit,
   which follows the host's speed (the server's moved by 9% from run to
   run). Returns the cycle count, the loop's length in s and that
   reading. *)
let timed_loop ~seconds ~cycle ~(rss : unit -> float) =
  Gc.compact ();
  Trace.in_run := true;
  let c0 = !Calib.spent_ms in
  let t0 = Trace.now_ns () in
  let peak = ref nan in
  let rec go n =
    cycle ();
    if n = 0 then begin
      Trace.first_cycle_end := !Trace.op;
      peak := rss ()
    end;
    let el = Trace.s_since t0 -. ((!Calib.spent_ms -. c0) /. 1e3) in
    if el < seconds || n = 0 then go (n + 1) else (n + 1, el)
  in
  let cycles, el = go 0 in
  Trace.in_run := false;
  (cycles, el, !peak)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> fail "no VmHWM line in %s" path
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let out_dir = ".bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* The data is the paper's synthetic instance at one generator seed (the
   one `rxv` defaults to); the run's --seed picks only the ops. Seeded
   data made the per-run medians swing by up to 2x from seed to seed. *)
let data_seed = 7

let dataset ~n = Synth.generate (Synth.default_params ~seed:data_seed n)

let key_of (v : Value.t) =
  match v with Value.Int k -> k | _ -> fail "non-integer key"

(* the cid constants of a path, outermost step first: [pk; ck] for the
   delete paths of [Updates], [pk] for its insert paths *)
let rec cid_keys (p : Ast.path) =
  match p with
  | Ast.Seq (a, b) -> cid_keys a @ cid_keys b
  | Ast.Where (a, f) -> cid_keys a @ filter_keys f
  | Ast.Self | Ast.Label _ | Ast.Wildcard | Ast.Desc_or_self -> []

and filter_keys = function
  | Ast.Eq (Ast.Label "cid", s) -> [ int_of_string s ]
  | Ast.Eq _ | Ast.Exists _ | Ast.Label_is _ -> []
  | Ast.And (a, b) | Ast.Or (a, b) -> filter_keys a @ filter_keys b
  | Ast.Not f -> filter_keys f

(* the child of a fresh-key insert: its delete path, in the shape of
   the delete paths [Updates] generates *)
let child_path (ins_path : Ast.path) key =
  Ast.Seq
    (ins_path, Ast.Where (Ast.Label "c", Ast.Eq (Ast.Label "cid", string_of_int key)))

(* The fixed read set: 8 paths of one class, each selecting the child of
   one existing sub→c edge: delete paths of the paper's workloads, used
   as queries. Like the data, they do not depend on the run's seed; one
   class keeps the read latencies in one cluster. *)
let read_paths store cls =
  Updates.deletions store cls ~count:8 ~seed:data_seed
  |> List.map Rxv_core.Xupdate.path_of
  |> Array.of_list

(* The workloads leave the view as it was, so the final database is the
   freshly generated one, except that a fresh-key insert adds CU(k) and
   F(k) and its undo deletes only the H(_, k) link: those orphan rows,
   for exactly the fresh keys the run inserted, are the only difference
   allowed. *)
let check_db ~(fresh : Database.t) ~(orphans : (int, unit) Hashtbl.t)
    (db : Database.t) =
  List.iter
    (fun name ->
      let got = Database.relation db name
      and want = Database.relation fresh name in
      Relation.iter
        (fun t ->
          if not (Relation.mem got t) then
            fail "final %s lacks a generated row (key %d)" name (key_of t.(0)))
        want;
      let allowed t = (name = "CU" || name = "F") && Hashtbl.mem orphans (key_of t.(0)) in
      let extra = ref 0 in
      Relation.iter
        (fun t ->
          if not (Relation.mem want t) then
            if allowed t then incr extra
            else fail "final %s has an unexpected row (key %d)" name (key_of t.(0)))
        got;
      if (name = "CU" || name = "F") && !extra <> Hashtbl.length orphans then
        fail "final %s has %d fresh-key rows, expected %d" name !extra
          (Hashtbl.length orphans))
    [ "C"; "F"; "H"; "CU" ]

(* the final-state gate: the view is a republication of the database,
   which is the generated one at |C| = [n] plus the rows of the first
   [fresh] fresh keys *)
let check_final (e : Engine.t) ~n ~fresh =
  (match Engine.check_consistency e with
  | Ok () -> ()
  | Error m -> fail "consistency check failed: %s" m);
  let d = dataset ~n in
  let orphans = Hashtbl.create 256 in
  for i = 0 to fresh - 1 do
    Hashtbl.replace orphans (Synth.fresh_key d i) ()
  done;
  check_db ~fresh:d.Synth.db ~orphans e.Engine.db

(* a read's result size must be the one seen the first time its
   position in the cycle ran *)
let same_as_first (seen : int array array) i j got =
  let e = seen.(i).(j) in
  if e < 0 then seen.(i).(j) <- got
  else if got <> e then
    fail "read %d at cycle position %d selected %d nodes, earlier %d" j i got e

(* {2 Statistics} *)

(* linear interpolation between closest ranks, q in [0, 1] *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* median duration of the set-up phase spans called [name] *)
let setup_p50 name =
  match List.filter (fun s -> s.Trace.name = name && not s.Trace.in_run) !Trace.spans with
  | [] -> 0.
  | l -> median (Array.of_list (List.map Trace.dur_ms l))

(* A percentile falls in a gap between clusters of op kinds when few
   samples lie near it: it would jump between clusters from run to run.
   Returns the share of samples within ±25% of the [q] percentile, which
   must be at least 5%. *)
let near_share xs q =
  let v = quantile xs q in
  let near = Array.fold_left (fun n x -> if x >= v /. 1.25 && x <= v *. 1.25 then n + 1 else n) 0 xs in
  let share = float_of_int near /. float_of_int (max 1 (Array.length xs)) in
  (v, share, share >= 0.05)

(* The share of an update span its child spans cover, for all but the
   5% least covered updates. The uncovered rest is the driver's own
   bookkeeping between two calls; a GC slice or a host preemption that
   lands there (up to 84 µs seen) leaves a few updates less covered. *)
let update_coverage () =
  let spans = Trace.run_spans () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child s.Trace.parent) in
      Hashtbl.replace child s.Trace.parent (prev +. Trace.dur_ms s))
    spans;
  let cov =
    List.filter_map
      (fun s ->
        if s.Trace.name <> "update" then None
        else Some (Option.value ~default:0. (Hashtbl.find_opt child s.Trace.id) /. Trace.dur_ms s))
      spans
  in
  if cov = [] then 0. else quantile (Array.of_list cov) 0.05
