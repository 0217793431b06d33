(** Compiled XPath plans: the deep normal form lowered to flat opcode
    arrays (see plan.mli). Compilation runs {!Normal.of_path} recursively
    — on the outer path and on every path embedded in a filter — so the
    opcodes *are* the deep normal form. *)

type target = T_exists | T_text_eq of string

type filter =
  | F_label of int
  | F_and of filter * filter
  | F_or of filter * filter
  | F_not of filter
  | F_path of int

type step = S_filter of filter | S_label of int | S_wild | S_desc
type pfilter = { steps : step array; target : target }

type t = {
  outer : step array;
  pfilters : pfilter array;
  labels : string array;
}

(* ---- compilation ---- *)

let compile (p : Ast.path) : t =
  let ids = Hashtbl.create 8 in
  let names = ref [] in
  let n_labels = ref 0 in
  let intern a =
    match Hashtbl.find_opt ids a with
    | Some i -> i
    | None ->
        let i = !n_labels in
        incr n_labels;
        Hashtbl.replace ids a i;
        names := a :: !names;
        i
  in
  let pfs = ref [] in
  let n_pf = ref 0 in
  (* sub-filters are appended before the filter that references them, so
     the table comes out in sub-expression (inner-before-outer) order —
     the order the bottom-up pass fills tables in *)
  let add_pf pf =
    let k = !n_pf in
    incr n_pf;
    pfs := pf :: !pfs;
    k
  in
  let rec compile_filter = function
    | Ast.Label_is a -> F_label (intern a)
    | Ast.And (a, b) -> F_and (compile_filter a, compile_filter b)
    | Ast.Or (a, b) -> F_or (compile_filter a, compile_filter b)
    | Ast.Not a -> F_not (compile_filter a)
    | Ast.Exists p ->
        let steps = compile_steps (Normal.of_path p) in
        F_path (add_pf { steps; target = T_exists })
    | Ast.Eq (p, s) ->
        let steps = compile_steps (Normal.of_path p) in
        F_path (add_pf { steps; target = T_text_eq s })
  and compile_steps steps =
    Array.of_list
      (List.map
         (function
           | Normal.Filter q -> S_filter (compile_filter q)
           | Normal.Step_label a -> S_label (intern a)
           | Normal.Step_wild -> S_wild
           | Normal.Step_desc -> S_desc)
         steps)
  in
  let outer = compile_steps (Normal.of_path p) in
  let pfilters = Array.of_list (List.rev !pfs) in
  let labels = Array.of_list (List.rev !names) in
  { outer; pfilters; labels }
