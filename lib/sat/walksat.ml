(** WalkSAT (Selman–Kautz), the local-search SAT procedure the paper uses
    to process the view-insertion encoding (Section 4.3, [30]).

    Standard noise strategy: repeatedly pick an unsatisfied clause; with
    probability [noise] flip a random variable of it, otherwise flip the
    variable minimizing the break count (the number of currently satisfied
    clauses the flip would falsify), with free moves (break count 0) taken
    greedily. Incomplete: failure to find a model within the flip budget
    does not prove unsatisfiability — exactly the behaviour the paper
    reports (its solver succeeded in 78% of the insertion cases). *)

type result =
  | Sat of Cnf.assignment
  | Unknown  (** flip/restart budget exhausted *)

type stats = {
  mutable flips : int;
  mutable restarts : int;
}

let solve ?(seed = 42) ?(noise = 0.5) ?(max_flips = 100_000)
    ?(max_restarts = 10) (f : Cnf.t) : result * stats =
  let stats = { flips = 0; restarts = 0 } in
  let clauses = Cnf.clauses f in
  let ncl = Array.length clauses in
  let nv = Cnf.nvars f in
  if ncl = 0 then (Sat (Array.make (nv + 1) false), stats)
  else begin
    let rng = Rng.create seed in
    (* occurrence lists: clauses containing each variable *)
    let occ = Array.make (nv + 1) [] in
    Array.iteri
      (fun ci c ->
        Array.iter (fun l -> let v = abs l in occ.(v) <- ci :: occ.(v)) c)
      clauses;
    let assign = Array.make (nv + 1) false in
    (* number of true literals per clause, maintained incrementally *)
    let sat_count = Array.make ncl 0 in
    let unsat = Hashtbl.create 64 in
    (* clause index -> unit, the currently falsified clauses *)
    let recount ci =
      let c = clauses.(ci) in
      let n = Array.fold_left (fun n l -> if Cnf.lit_true assign l then n + 1 else n) 0 c in
      sat_count.(ci) <- n;
      if n = 0 then Hashtbl.replace unsat ci () else Hashtbl.remove unsat ci
    in
    let init () =
      for v = 1 to nv do
        assign.(v) <- Rng.bool rng
      done;
      Hashtbl.reset unsat;
      for ci = 0 to ncl - 1 do
        recount ci
      done
    in
    let flip v =
      assign.(v) <- not assign.(v);
      List.iter
        (fun ci ->
          let c = clauses.(ci) in
          (* does v now satisfy or falsify its literal in c? *)
          Array.iter
            (fun l ->
              if abs l = v then
                if Cnf.lit_true assign l then begin
                  sat_count.(ci) <- sat_count.(ci) + 1;
                  if sat_count.(ci) = 1 then Hashtbl.remove unsat ci
                end
                else begin
                  sat_count.(ci) <- sat_count.(ci) - 1;
                  if sat_count.(ci) = 0 then Hashtbl.replace unsat ci ()
                end)
            c)
        occ.(v)
    in
    (* break count of flipping v: satisfied clauses that v alone keeps
       true and whose truth the flip would destroy *)
    let break_count v =
      List.fold_left
        (fun n ci ->
          if sat_count.(ci) = 1 then
            let c = clauses.(ci) in
            if
              Array.exists
                (fun l -> abs l = v && Cnf.lit_true assign l)
                c
            then n + 1
            else n
          else n)
        0 occ.(v)
    in
    let pick_unsat_clause () =
      (* deterministic-ish choice: sample among current keys *)
      let n = Hashtbl.length unsat in
      let k = Rng.int rng n in
      let i = ref 0 and found = ref (-1) in
      (try
         Hashtbl.iter
           (fun ci () ->
             if !i = k then begin
               found := ci;
               raise Exit
             end;
             incr i)
           unsat
       with Exit -> ());
      !found
    in
    let result = ref Unknown in
    (try
       for _restart = 1 to max_restarts do
         stats.restarts <- stats.restarts + 1;
         init ();
         let flips_left = ref max_flips in
         while Hashtbl.length unsat > 0 && !flips_left > 0 do
           decr flips_left;
           stats.flips <- stats.flips + 1;
           let ci = pick_unsat_clause () in
           let c = clauses.(ci) in
           let vars = Array.to_list (Array.map abs c) in
           let v =
             if Rng.float rng < noise then Rng.pick rng vars
             else begin
               (* greedy: min break count, ties broken by first *)
               let best = ref (List.hd vars) in
               let best_b = ref (break_count !best) in
               List.iter
                 (fun w ->
                   let b = break_count w in
                   if b < !best_b then begin
                     best := w;
                     best_b := b
                   end)
                 (List.tl vars);
               !best
             end
           in
           flip v
         done;
         if Hashtbl.length unsat = 0 then begin
           result := Sat (Array.copy assign);
           raise Exit
         end
       done
     with Exit -> ());
    (!result, stats)
  end

(** Convenience wrapper dropping statistics. *)
let solve_result ?seed ?noise ?max_flips ?max_restarts f =
  fst (solve ?seed ?noise ?max_flips ?max_restarts f)
