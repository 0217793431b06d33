(* Tests for the SAT substrate: CNF building, WalkSAT on satisfiable
   instances, and the incremental CDCL solver against two reference
   oracles, brute force and DPLL ({!Dpll}, kept here in test/). *)

module Cnf = Rxv_sat.Cnf
module Walksat = Rxv_sat.Walksat
module Inc = Rxv_sat.Inc
module Rng = Rxv_sat.Rng

let check = Alcotest.(check bool)

(* --- rng --- *)

let test_rng_determinism () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    check "in range" true (v >= 0 && v < 7);
    let f = Rng.float r in
    check "float in range" true (f >= 0. && f < 1.)
  done

(* --- cnf --- *)

let test_cnf_builder () =
  let f = Cnf.create () in
  let x = Cnf.var f "x" and y = Cnf.var f "y" in
  check "interned" true (x = Cnf.var f "x");
  Cnf.add_clause f [ x; y ];
  Cnf.add_clause f [ -x; y ];
  Alcotest.(check int) "clauses" 2 (Cnf.nclauses f);
  (* tautologies dropped *)
  Cnf.add_clause f [ x; -x ];
  Alcotest.(check int) "tautology dropped" 2 (Cnf.nclauses f);
  (* duplicate literals merged *)
  Cnf.add_clause f [ y; y ];
  check "unit-ized" true
    (Array.length (Cnf.clauses f).(2) = 1);
  (* empty clause *)
  (try
     Cnf.add_clause f [];
     Alcotest.fail "empty clause accepted"
   with Cnf.Trivial_conflict -> ());
  (* assignment check *)
  let a = Array.make (Cnf.nvars f + 1) false in
  a.(y) <- true;
  check "satisfies" true (Cnf.satisfies a f)

let test_exactly_one () =
  let f = Cnf.create () in
  let vars = List.init 4 (fun i -> Cnf.var f (Printf.sprintf "v%d" i)) in
  Cnf.exactly_one f vars;
  match Dpll.solve f with
  | Dpll.Unsat -> Alcotest.fail "exactly-one unsat"
  | Dpll.Sat a ->
      let count = List.length (List.filter (fun v -> a.(v)) vars) in
      Alcotest.(check int) "exactly one true" 1 count

(* --- random 3-SAT with a planted solution: WalkSAT must solve it --- *)

let planted_3sat ~nvars ~nclauses ~seed =
  let rng = Rng.create seed in
  let f = Cnf.create () in
  let planted = Array.init (nvars + 1) (fun _ -> Rng.bool rng) in
  for _ = 1 to nclauses do
    let lits =
      List.init 3 (fun _ ->
          let v = 1 + Rng.int rng nvars in
          if Rng.bool rng then v else -v)
    in
    (* make sure the planted assignment satisfies the clause: flip one
       literal towards it if needed *)
    let ok =
      List.exists
        (fun l -> if l > 0 then planted.(l) else not planted.(-l))
        lits
    in
    let lits =
      if ok then lits
      else
        match lits with
        | l :: rest ->
            let v = abs l in
            (if planted.(v) then v else -v) :: rest
        | [] -> assert false
    in
    (try Cnf.add_clause f lits with Cnf.Trivial_conflict -> ())
  done;
  (f, planted)

let walksat_planted =
  Helpers.qtest ~count:30 "WalkSAT solves planted 3-SAT"
    QCheck2.Gen.(
      let* nvars = int_range 5 40 in
      let* seed = int_range 0 100000 in
      return (nvars, seed))
    (fun (nvars, seed) -> Printf.sprintf "nvars=%d seed=%d" nvars seed)
    (fun (nvars, seed) ->
      let f, _ = planted_3sat ~nvars ~nclauses:(3 * nvars) ~seed in
      match Walksat.solve_result ~seed:(seed + 1) f with
      | Walksat.Sat a -> Cnf.satisfies a f
      | Walksat.Unknown -> false)

(* --- DPLL vs brute force on small formulas --- *)

let random_cnf ~nvars ~nclauses ~seed =
  let rng = Rng.create seed in
  let f = Cnf.create () in
  (* register variables so brute force knows the count *)
  for v = 1 to nvars do
    ignore (Cnf.var f (Printf.sprintf "b%d" v))
  done;
  for _ = 1 to nclauses do
    let width = 1 + Rng.int rng 3 in
    let lits =
      List.init width (fun _ ->
          let v = 1 + Rng.int rng nvars in
          if Rng.bool rng then v else -v)
    in
    (try Cnf.add_clause f lits with Cnf.Trivial_conflict -> ())
  done;
  f

let brute_force_sat f =
  let n = Cnf.nvars f in
  let a = Array.make (n + 1) false in
  let rec go v =
    if v > n then Cnf.satisfies a f
    else begin
      a.(v) <- false;
      go (v + 1)
      ||
      (a.(v) <- true;
       go (v + 1))
    end
  in
  go 1

let dpll_complete =
  Helpers.qtest ~count:60 "DPLL agrees with brute force"
    QCheck2.Gen.(
      let* nvars = int_range 2 10 in
      let* nclauses = int_range 1 25 in
      let* seed = int_range 0 100000 in
      return (nvars, nclauses, seed))
    (fun (a, b, c) -> Printf.sprintf "nv=%d nc=%d seed=%d" a b c)
    (fun (nvars, nclauses, seed) ->
      let f = random_cnf ~nvars ~nclauses ~seed in
      let expect = brute_force_sat f in
      match Dpll.solve f with
      | Dpll.Sat a -> expect && Cnf.satisfies a f
      | Dpll.Unsat -> not expect)

(* walksat never claims SAT wrongly *)
let walksat_sound =
  Helpers.qtest ~count:60 "WalkSAT models really satisfy"
    QCheck2.Gen.(
      let* nvars = int_range 2 12 in
      let* nclauses = int_range 1 30 in
      let* seed = int_range 0 100000 in
      return (nvars, nclauses, seed))
    (fun (a, b, c) -> Printf.sprintf "nv=%d nc=%d seed=%d" a b c)
    (fun (nvars, nclauses, seed) ->
      let f = random_cnf ~nvars ~nclauses ~seed in
      match Walksat.solve_result ~seed ~max_flips:2000 ~max_restarts:3 f with
      | Walksat.Sat a -> Cnf.satisfies a f
      | Walksat.Unknown -> true)

let test_unsat_detected () =
  let f = Cnf.create () in
  let x = Cnf.var f "x" in
  Cnf.add_clause f [ x ];
  Cnf.add_clause f [ -x ];
  (match Dpll.solve f with
  | Dpll.Unsat -> ()
  | Dpll.Sat _ -> Alcotest.fail "x ∧ ¬x satisfiable?");
  match Walksat.solve_result ~max_flips:500 ~max_restarts:2 f with
  | Walksat.Unknown -> ()
  | Walksat.Sat _ -> Alcotest.fail "walksat claimed unsat formula"

(* --- incremental CDCL: agreement with DPLL / brute force --- *)

let lit_holds a l =
  if l > 0 then l < Array.length a && a.(l)
  else not (-l < Array.length a && a.(-l))

let inc_matches_dpll =
  Helpers.qtest ~count:80 "Inc (CDCL) agrees with brute force"
    QCheck2.Gen.(
      let* nvars = int_range 2 10 in
      let* nclauses = int_range 1 25 in
      let* seed = int_range 0 100000 in
      return (nvars, nclauses, seed))
    (fun (a, b, c) -> Printf.sprintf "nv=%d nc=%d seed=%d" a b c)
    (fun (nvars, nclauses, seed) ->
      let f = random_cnf ~nvars ~nclauses ~seed in
      let expect = brute_force_sat f in
      let inc = Inc.create () in
      Inc.add_cnf inc f;
      match Inc.solve inc with
      | Inc.Sat a ->
          expect && Cnf.satisfies a f
          &&
          (* learned state must not corrupt a repeat solve *)
          (match Inc.solve inc with
          | Inc.Sat a' -> Cnf.satisfies a' f
          | Inc.Unsat -> false)
      | Inc.Unsat -> not expect)

let inc_assumptions =
  Helpers.qtest ~count:80 "Inc under assumptions ≡ DPLL with unit clauses"
    QCheck2.Gen.(
      let* nvars = int_range 2 10 in
      let* nclauses = int_range 1 25 in
      let* nassume = int_range 1 4 in
      let* seed = int_range 0 100000 in
      return (nvars, nclauses, nassume, seed))
    (fun (a, b, n, c) -> Printf.sprintf "nv=%d nc=%d na=%d seed=%d" a b n c)
    (fun (nvars, nclauses, nassume, seed) ->
      let f = random_cnf ~nvars ~nclauses ~seed in
      let rng = Rng.create (seed + 7) in
      let assumptions =
        List.init nassume (fun _ ->
            let v = 1 + Rng.int rng nvars in
            if Rng.bool rng then v else -v)
      in
      let inc = Inc.create () in
      Inc.add_cnf inc f;
      (* reference: the same formula with the assumptions as units *)
      let reference =
        let f2 = random_cnf ~nvars ~nclauses ~seed in
        try
          List.iter (fun l -> Cnf.add_clause f2 [ l ]) assumptions;
          Dpll.solve f2
        with Cnf.Trivial_conflict -> Dpll.Unsat
      in
      let r1 = Inc.solve ~assumptions inc in
      (* solving under assumptions must not poison later calls: the
         unconstrained answer afterwards still matches brute force *)
      let unconstrained_ok =
        match Inc.solve inc with
        | Inc.Sat a -> brute_force_sat f && Cnf.satisfies a f
        | Inc.Unsat -> not (brute_force_sat f)
      in
      unconstrained_ok
      &&
      match (r1, reference) with
      | Inc.Sat a, Dpll.Sat _ ->
          Cnf.satisfies a f && List.for_all (lit_holds a) assumptions
      | Inc.Unsat, Dpll.Unsat -> true
      | Inc.Sat _, Dpll.Unsat | Inc.Unsat, Dpll.Sat _ -> false)

let inc_push_pop =
  Helpers.qtest ~count:60 "Inc push/pop retracts scoped clauses exactly"
    QCheck2.Gen.(
      let* nvars = int_range 2 8 in
      let* nc1 = int_range 1 12 in
      let* nc2 = int_range 1 12 in
      let* seed = int_range 0 100000 in
      return (nvars, nc1, nc2, seed))
    (fun (a, b, c, d) -> Printf.sprintf "nv=%d nc1=%d nc2=%d seed=%d" a b c d)
    (fun (nvars, nc1, nc2, seed) ->
      let f1 = random_cnf ~nvars ~nclauses:nc1 ~seed in
      let rng = Rng.create (seed + 13) in
      let extra =
        List.init nc2 (fun _ ->
            let width = 1 + Rng.int rng 3 in
            List.init width (fun _ ->
                let v = 1 + Rng.int rng nvars in
                if Rng.bool rng then v else -v))
      in
      let sat1 = brute_force_sat f1 in
      let sat2 =
        let f2 = random_cnf ~nvars ~nclauses:nc1 ~seed in
        try
          List.iter (fun c -> Cnf.add_clause f2 c) extra;
          brute_force_sat f2
        with Cnf.Trivial_conflict -> false
      in
      let inc = Inc.create () in
      Inc.add_cnf inc f1;
      let agree1 r =
        match r with
        | Inc.Sat a -> sat1 && Cnf.satisfies a f1
        | Inc.Unsat -> not sat1
      in
      let agree2 r =
        match r with
        | Inc.Sat a ->
            sat2 && Cnf.satisfies a f1
            && List.for_all (fun c -> List.exists (lit_holds a) c) extra
        | Inc.Unsat -> not sat2
      in
      let r0 = Inc.solve inc in
      Inc.push inc;
      List.iter (fun c -> Inc.add_clause inc c) extra;
      let r1 = Inc.solve inc in
      Inc.pop inc;
      let r2 = Inc.solve inc in
      agree1 r0 && agree2 r1 && agree1 r2)

let tests =
  [
    Alcotest.test_case "rng determinism and ranges" `Quick test_rng_determinism;
    Alcotest.test_case "cnf builder" `Quick test_cnf_builder;
    Alcotest.test_case "exactly-one encoding" `Quick test_exactly_one;
    walksat_planted;
    dpll_complete;
    walksat_sound;
    Alcotest.test_case "unsat detected" `Quick test_unsat_detected;
    inc_matches_dpll;
    inc_assumptions;
    inc_push_pop;
  ]
