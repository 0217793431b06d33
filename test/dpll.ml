(** A small complete SAT solver (DPLL with unit propagation and pure-literal
    elimination): the reference oracle the SAT suite checks the
    incremental CDCL solver {!Rxv_sat.Inc} and the CNF encodings against,
    next to brute force. Not meant for large formulas. *)

module Cnf = Rxv_sat.Cnf

type result =
  | Sat of Cnf.assignment
  | Unsat

(* Clauses as literal lists; assignment as a partial map. *)
let solve (f : Cnf.t) : result =
  let nv = Cnf.nvars f in
  let clauses = Array.to_list (Cnf.clauses f) in
  let clauses = List.map Array.to_list clauses in
  (* values.(v) : -1 unassigned, 0 false, 1 true *)
  let values = Array.make (nv + 1) (-1) in
  let lit_value l =
    let v = values.(abs l) in
    if v = -1 then -1 else if (l > 0) = (v = 1) then 1 else 0
  in
  let rec simplify cls =
    (* returns Some simplified-clauses, or None on conflict; performs unit
       propagation to fixpoint *)
    let changed = ref false in
    let out = ref [] in
    let conflict = ref false in
    List.iter
      (fun c ->
        if not !conflict then begin
          let c' = List.filter (fun l -> lit_value l <> 0) c in
          if List.exists (fun l -> lit_value l = 1) c' then ()
          else
            match c' with
            | [] -> conflict := true
            | [ l ] ->
                values.(abs l) <- (if l > 0 then 1 else 0);
                changed := true
            | _ -> out := c' :: !out
        end)
      cls;
    if !conflict then None
    else if !changed then simplify !out
    else Some !out
  in
  let pure_literals cls =
    let pos = Array.make (nv + 1) false and neg = Array.make (nv + 1) false in
    List.iter
      (List.iter (fun l -> if l > 0 then pos.(l) <- true else neg.(-l) <- true))
      cls;
    let pures = ref [] in
    for v = 1 to nv do
      if values.(v) = -1 then
        if pos.(v) && not neg.(v) then pures := v :: !pures
        else if neg.(v) && not pos.(v) then pures := -v :: !pures
    done;
    !pures
  in
  let rec go cls =
    match simplify cls with
    | None -> false
    | Some [] -> true
    | Some cls -> (
        match pure_literals cls with
        | _ :: _ as pures ->
            List.iter
              (fun l -> values.(abs l) <- (if l > 0 then 1 else 0))
              pures;
            go cls
        | [] -> (
            (* branch on the first literal of the first clause *)
            match cls with
            | (l :: _) :: _ ->
                let v = abs l in
                let saved = Array.copy values in
                values.(v) <- 1;
                if go cls then true
                else begin
                  Array.blit saved 0 values 0 (Array.length saved);
                  values.(v) <- 0;
                  if go cls then true
                  else begin
                    Array.blit saved 0 values 0 (Array.length saved);
                    false
                  end
                end
            | _ -> assert false))
  in
  if go clauses then begin
    let a = Array.make (nv + 1) false in
    for v = 1 to nv do
      a.(v) <- values.(v) = 1
    done;
    Sat a
  end
  else Unsat
