(* Monotonic time and in-memory spans.

   Every timed interval of the benchmark goes through [timed]: with
   tracing off it is two clock reads; with tracing on it also records a
   span (op id, name, parent, start and end in ns, minor words
   allocated). Spans stay in memory until [write] at exit, so the
   traced run does no I/O inside a timed region. *)

let now_ns () = Monotonic_clock.now ()
let ms_of_ns d = Int64.to_float d /. 1e6
let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

type span = {
  id : int;
  op : int;  (** op sequence number; -1 outside ops (set-up phases) *)
  in_run : bool;  (** recorded inside the timed loop, not during set-up *)
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  t0 : int64;
  t1 : int64;
  words : float;  (** minor words allocated inside the span *)
}

let enabled = ref false
let in_run = ref false
let op = ref (-1)

(* the last op of the first timed cycle: allocation is counted over that
   cycle alone, since later cycles allocate slightly more as fresh keys
   accumulate, and runs differ in how many cycles they fit *)
let first_cycle_end = ref max_int
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

(* start a new op: later spans carry its id *)
let next_op () = incr op

(* run [f]; return its result and its wall time in ms *)
let timed name f =
  if not !enabled then begin
    let t0 = now_ns () in
    let v = f () in
    (v, ms_of_ns (Int64.sub (now_ns ()) t0))
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let words = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      spans :=
        { id; op = !op; in_run = !in_run; name; parent; t0; t1; words }
        :: !spans;
      ms_of_ns (Int64.sub t1 t0)
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
        ignore (finish ());
        raise e
  end

let span name f = fst (timed name f)
let dur_ms s = ms_of_ns (Int64.sub s.t1 s.t0)

(* spans recorded inside the timed loop, oldest first *)
let run_spans () = List.rev (List.filter (fun s -> s.in_run) !spans)

let write path =
  let oc = open_out path in
  Printf.fprintf oc "op\tid\tparent\tphase\tname\tstart_ns\tend_ns\tminor_words\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%Ld\t%Ld\t%.0f\n" s.op s.id
        s.parent
        (if s.in_run then "run" else "setup")
        s.name s.t0 s.t1 s.words)
    (List.rev !spans);
  close_out oc
