(* Host speed, measured inside every run.

   The machine's per-instruction speed drifts by ±10–25% over minutes
   (CPU time tracks wall time, so the drift is not scheduling), and a
   longer run does not average it out. So every run also times a fixed
   piece of work that uses none of rxv, in slices of ~4 ms: one before
   every set-up and one after any op that ends 200 ms or more after the
   last slice. A slice is two parts, timed together:
   - an allocation-free dependent walk over a 128 KiB integer table,
     which stays in the L2 cache: the core's speed;
   - a read-modify-write pass over 8 MiB of a 32 MiB buffer outside the
     OCaml heap: memory bandwidth, which the engine's allocation and GC
     lean on and the walk does not see.
   [factor] is [ref_ms] over the median slice: a run's times multiplied
   by it are the times at the reference speed, at which one slice takes
   [ref_ms]. Set-up times are scaled by the slices taken during set-up,
   all other times by those taken after it, as the speed drifts within
   a run too.

   Kernels tried, in six to eight same-seed runs per workload: this walk
   over 32 KiB, 128 KiB, 1 MiB, 16 MiB and 64 MiB tables, the pass over
   32 MiB, a register-only hash chain, an allocating Map/Hashtbl loop,
   and the walk split between two processes over a pipe. The walk alone
   left the in-process workloads' times 2x as sensitive to a slowdown as
   itself; the pass alone over-corrected replica_apply's updates; the
   two together kept every end-to-end time of every workload within about
   10% (IQR over median) where the raw times spread by up to 26%. The 1 MiB
   walk ran twice as slowly in some processes as in others, and the
   allocating loop times the workload's GC along with the host.

   Slices fall outside every timed interval; their time is taken out of
   the set-up times and of the timed loop's length. The buffer is
   resident for the whole run: [buffer_mb] is taken out of this
   process's own peak RSS. *)

let ref_ms = 3.75

let bits = 14
let mask = (1 lsl bits) - 1
let steps = 200_000

let table =
  Array.init (1 lsl bits) (fun i -> (i * 0x9E3779B1) land max_int)

module A1 = Bigarray.Array1

let buffer_words = 1 lsl 22
let pass_words = 1 lsl 20

let buffer =
  let b = A1.create Bigarray.int Bigarray.c_layout buffer_words in
  A1.fill b 1;
  b

let buffer_mb = float_of_int (buffer_words * (Sys.word_size / 8)) /. 1048576.
let pos = ref 0

(* every slice's duration in ms, those taken during set-up apart *)
let slices : float list ref = ref []
let setup_slices : float list ref = ref []
let in_setup = ref false

(* total ms spent in slices, taken out of set-up times and loop lengths *)
let spent_ms = ref 0.
let last = ref 0L

let slice () =
  let t0 = Trace.now_ns () in
  let h = ref 1 in
  for i = 0 to steps - 1 do
    let j = (!h lxor (i * 0x9E3779B1)) land mask in
    let v = Array.unsafe_get table j in
    Array.unsafe_set table j (v lxor i);
    h := (!h * 31) + (v lsr 3)
  done;
  let p = !pos in
  for i = p to p + pass_words - 1 do
    let v = A1.unsafe_get buffer i in
    A1.unsafe_set buffer i (v + 1);
    h := !h + v
  done;
  pos := (p + pass_words) land (buffer_words - 1);
  (* keeps the work from being optimised away *)
  if !h = 0 then print_string "";
  let t1 = Trace.now_ns () in
  let ms = Trace.ms_of_ns (Int64.sub t1 t0) in
  if !in_setup then setup_slices := ms :: !setup_slices else slices := ms :: !slices;
  spent_ms := !spent_ms +. ms;
  last := t1

(* after every op *)
let tick () = if Int64.sub (Trace.now_ns ()) !last >= 200_000_000L then slice ()

let median_ms ?(setup = false) () =
  let a = Array.of_list (if setup then !setup_slices else !slices) in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let factor ?setup () = ref_ms /. median_ms ?setup ()

(* a metric at the reference speed, by its unit *)
let scale f unit v =
  match unit with "ms" | "s" -> v *. f | "1/s" -> v /. f | _ -> v
