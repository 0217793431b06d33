(** Symbolic SPJ evaluation over tuples enriched with variables.

    Appendix A of the paper evaluates each view query on the database
    incremented with tuple templates whose unknown fields are variables, in
    order to (a) enumerate would-be view tuples that signal side effects and
    (b) collect, for each, the equality condition under which it is
    produced. SQL cannot run on tuples with variables, so we implement the
    evaluation directly: predicates between known values are decided, and
    predicates touching a variable are accumulated as symbolic equality
    constraints attached to the produced row. *)

type sval =
  | Known of Value.t
  | Var of int  (** variable identifier; its type is tracked by the caller *)

type srow = sval array

type constr = Ceq of sval * sval
(** an equality that could not be decided: at least one side is a variable *)

type result_row = { row : srow; constraints : constr list }

exception Symbolic_error of string

let symbolic_error fmt = Fmt.kstr (fun s -> raise (Symbolic_error s)) fmt

(** A symbolic source for one FROM position: a concrete relation with a
    row filter (so [I_i \ X_i] needs no copying), an explicit list of
    symbolic rows (the tuple-template sets [U_i], or [X_i ∩ I_i]), or a
    ground row set kept by its owner (the store's gen_A registry): a probe
    binding every column asks [mem], and any other access scans [rows],
    which lists the same set in scan order. *)
type source =
  | Concrete of Relation.t * (Tuple.t -> bool)
  | Rows of srow list
  | Member of { mem : Tuple.t -> bool; rows : srow list Lazy.t }

let of_tuple (t : Tuple.t) : srow = Array.map (fun v -> Known v) t

let sval_equal a b =
  match (a, b) with
  | Known x, Known y -> Value.equal x y
  | Var x, Var y -> x = y
  | Known _, Var _ | Var _, Known _ -> false

(* Decide or defer an equality between two symbolic values. *)
type verdict = True | False | Defer of constr

let decide a b : verdict =
  match (a, b) with
  | Known x, Known y -> if Value.equal x y then True else False
  | Var x, Var y when x = y -> True
  | _ -> Defer (Ceq (a, b))

let constr_equal (Ceq (a, b)) (Ceq (c, d)) =
  (sval_equal a c && sval_equal b d) || (sval_equal a d && sval_equal b c)

let add_constr c cs = if List.exists (constr_equal c) cs then cs else c :: cs

let iter_source f = function
  | Concrete (r, keep) -> Relation.iter (fun t -> if keep t then f (of_tuple t)) r
  | Rows rows | Member { rows = (lazy rows); _ } -> List.iter f rows

(** [run db q ~params sources] evaluates [q] with FROM position [i] ranging
    over [sources.(i)]. [params] are ground. Returns every produced view row
    with the (possibly empty) conjunction of symbolic equalities under which
    it exists.

    The plan mirrors {!Eval.run}: left-deep, with hash joins on join columns
    whenever both the probe key and the build column are ground. Rows of a
    concrete source are always ground; symbolic rows with a variable in a
    build column fall back to a residual scan for that join. *)
let run (db : Schema.db) (q : Spj.t) ?(params = [||]) (sources : source array)
    : result_row list =
  let n = List.length q.Spj.from in
  if Array.length sources <> n then
    symbolic_error "query %s: %d sources for %d FROM positions" q.Spj.qname
      (Array.length sources) n;
  let alias_position alias =
    let rec go i = function
      | [] -> symbolic_error "query %s: unbound alias %s" q.Spj.qname alias
      | (a, _) :: _ when a = alias -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 q.Spj.from
  in
  let col_index alias attr =
    let r = Schema.find_relation db (Spj.relation_of_alias q alias) in
    Schema.attr_index r attr
  in
  let operand_sval (env : srow array) (op : Spj.operand) : sval =
    match op with
    | Spj.Const v -> Known v
    | Spj.Param k ->
        if k >= Array.length params then
          symbolic_error "query %s: missing parameter $%d" q.Spj.qname k
        else Known params.(k)
    | Spj.Col (alias, attr) ->
        (env.(alias_position alias)).(col_index alias attr)
  in
  let pred_level (Spj.Eq (a, b)) =
    let lv = function
      | Spj.Col (alias, _) -> alias_position alias
      | Spj.Const _ | Spj.Param _ -> 0
    in
    max (lv a) (lv b)
  in
  let preds_at = Array.make n [] in
  List.iter
    (fun p ->
      let lvl = pred_level p in
      preds_at.(lvl) <- p :: preds_at.(lvl))
    q.Spj.where;
  let join_key_of_pred i (Spj.Eq (a, b)) =
    match (a, b) with
    | Spj.Col (aa, at), Spj.Col (ba, bt) ->
        let pa = alias_position aa and pb = alias_position ba in
        if pa = i && pb < i then Some ((aa, at), Spj.Col (ba, bt))
        else if pb = i && pa < i then Some ((ba, bt), Spj.Col (aa, at))
        else None
    | Spj.Col (aa, at), other when alias_position aa = i -> Some ((aa, at), other)
    | other, Spj.Col (ba, bt) when alias_position ba = i -> Some ((ba, bt), other)
    | _ -> None
  in
  let results = ref [] in
  (* Per-position join access paths, as (lookup, residual): symbolic rows
     with a variable in an indexed column are kept aside for residual
     scanning. Concrete relations probe their own persistent
     {!Relation.index_on} (built once, maintained across updates), and a
     [Member] source answers a probe binding all of its columns with one
     [mem] call, so repeated runs pay no per-call index construction;
     only row lists — template sets, or a [Member] source probed on some
     of its columns — build a throwaway table here. *)
  let rows_index cols rows =
    let idx = Hashtbl.create (max 16 (List.length rows)) in
    let residual = ref [] in
    List.iter
      (fun row ->
        let ground = ref true in
        let key =
          List.map
            (fun c ->
              match row.(c) with
              | Known v -> v
              | Var _ ->
                  ground := false;
                  Value.Null)
            cols
        in
        if !ground then
          let prev = Option.value ~default:[] (Hashtbl.find_opt idx key) in
          Hashtbl.replace idx key (row :: prev)
        else residual := row :: !residual)
      rows;
    let lookup key = Option.value ~default:[] (Hashtbl.find_opt idx key) in
    (lookup, !residual)
  in
  let index_cache = Hashtbl.create 4 in
  let build_index i cols =
    match Hashtbl.find_opt index_cache (i, cols) with
    | Some x -> x
    | None ->
        let x =
          match sources.(i) with
          | Concrete (r, keep) ->
              let idx = Relation.index_on r cols in
              let lookup key =
                match Hashtbl.find_opt idx key with
                | None -> []
                | Some ts ->
                    List.filter_map
                      (fun t -> if keep t then Some (of_tuple t) else None)
                      ts
              in
              (lookup, [])
          | Rows rows -> rows_index cols rows
          | Member { mem; rows } ->
              let arity =
                Schema.arity
                  (Schema.find_relation db (snd (List.nth q.Spj.from i)))
              in
              if List.for_all (fun c -> List.mem c cols) (List.init arity Fun.id)
              then
                (* the probe names the whole row: it is a member or absent
                   (a column probed twice must get one value) *)
                let lookup key =
                  let t = Array.make arity Value.Null in
                  List.iter2 (fun c v -> t.(c) <- v) cols key;
                  if List.for_all2 (fun c v -> Value.equal t.(c) v) cols key
                     && mem t
                  then [ of_tuple t ]
                  else []
                in
                (lookup, [])
              else rows_index cols (Lazy.force rows)
        in
        Hashtbl.replace index_cache (i, cols) x;
        x
  in
  let rec extend i (env : srow array) (cs : constr list) =
    if i = n then begin
      let row =
        Array.of_list
          (List.map (fun (_, op) -> operand_sval env op) q.Spj.select)
      in
      results := { row; constraints = cs } :: !results
    end
    else begin
      let joins, filters =
        List.partition_map
          (fun p ->
            match join_key_of_pred i p with
            | Some jk -> Either.Left jk
            | None -> Either.Right p)
          preds_at.(i)
      in
      let try_row row cs0 =
        let env' = Array.copy env in
        env'.(i) <- row;
        (* apply residual filters plus any join predicates not used for
           hashing (handled below by passing them in [filters']) *)
        let rec check cs = function
          | [] -> Some cs
          | Spj.Eq (a, b) :: rest -> (
              match decide (operand_sval env' a) (operand_sval env' b) with
              | True -> check cs rest
              | False -> None
              | Defer c -> check (add_constr c cs) rest)
        in
        match check cs0 filters with
        | None -> ()
        | Some cs' -> extend (i + 1) env' cs'
      in
      match joins with
      | [] -> iter_source (fun row -> try_row row cs) sources.(i)
      | _ ->
          (* Evaluate probe-side operands; if any is symbolic we cannot hash
             on that column — demote such joins to filters. *)
          let hashable, deferred =
            List.partition_map
              (fun ((alias, attr), probe_op) ->
                match operand_sval env probe_op with
                | Known v -> Either.Left (col_index alias attr, v)
                | Var _ ->
                    Either.Right (Spj.Eq (Spj.Col (alias, attr), probe_op)))
              joins
          in
          let filters' = deferred @ filters in
          let try_row_f row cs0 =
            let env' = Array.copy env in
            env'.(i) <- row;
            let rec check cs = function
              | [] -> Some cs
              | Spj.Eq (a, b) :: rest -> (
                  match decide (operand_sval env' a) (operand_sval env' b) with
                  | True -> check cs rest
                  | False -> None
                  | Defer c -> check (add_constr c cs) rest)
            in
            match check cs0 filters' with
            | None -> ()
            | Some cs' -> extend (i + 1) env' cs'
          in
          if hashable = [] then
            iter_source (fun row -> try_row_f row cs) sources.(i)
          else begin
            let cols = List.map fst hashable in
            let key = List.map snd hashable in
            let lookup, residual = build_index i cols in
            List.iter (fun row -> try_row_f row cs) (lookup key);
            (* Symbolic rows bypass the hash; re-check the hashed equalities
               as symbolic constraints. *)
            List.iter
              (fun row ->
                let env' = Array.copy env in
                env'.(i) <- row;
                let rec check cs = function
                  | [] -> Some cs
                  | (c, v) :: rest -> (
                      match decide row.(c) (Known v) with
                      | True -> check cs rest
                      | False -> None
                      | Defer cnstr -> check (add_constr cnstr cs) rest)
                in
                match check cs hashable with
                | None -> ()
                | Some cs' -> (
                    let rec checkf cs = function
                      | [] -> Some cs
                      | Spj.Eq (a, b) :: rest -> (
                          match
                            decide (operand_sval env' a) (operand_sval env' b)
                          with
                          | True -> checkf cs rest
                          | False -> None
                          | Defer cnstr -> checkf (add_constr cnstr cs) rest)
                    in
                    match checkf cs' filters' with
                    | None -> ()
                    | Some cs'' -> extend (i + 1) env' cs''))
              residual
          end
    end
  in
  extend 0 (Array.make n [||]) [];
  List.rev !results

let pp_sval ppf = function
  | Known v -> Value.pp ppf v
  | Var x -> Fmt.pf ppf "?%d" x

let pp_constr ppf (Ceq (a, b)) = Fmt.pf ppf "%a = %a" pp_sval a pp_sval b

let pp_row ppf (r : srow) =
  Fmt.pf ppf "(%a)" (Fmt.array ~sep:(Fmt.any ", ") pp_sval) r
