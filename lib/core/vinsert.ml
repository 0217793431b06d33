(** Algorithm insert (Section 4.3 and Appendix A): heuristic translation
    of group view insertions to base-table insertions, via SAT.

    The view updatability problem for insertions is NP-complete even under
    key preservation (Theorem 2), so the translation is a reduction:

    1. {b Tuple templates.} For each connection edge (u, rA) to insert
       into edge_A_B, the rule query Q must produce a row whose parameter
       side is $A = u.attr and whose projection prefix is $B = rA.attr.
       The equality closure of Q's WHERE conjunction, seeded with those
       known values, determines each base occurrence's fields; key
       preservation makes the keys derivable. Unknown fields become
       variables (finite domains go to SAT; infinite domains are
       "freshenable": a globally fresh constant falsifies every equality
       they appear in, the paper's case (b)). Templates whose key already
       exists in I are unified with the stored tuple or rejected.

    2. {b Side-effect scan.} Every edge view is evaluated symbolically over
       every combination U/A of template vs. base sources with at least
       one U position (the gen_A side rides along as a pseudo-relation so
       that the parameterized rules become the closed SPJ views of
       Appendix A). A produced row is *intended* if its (parent, child)
       edge is already in the updated DAG or among the connection edges;
       anything else is a side effect: ground → reject (case (a));
       finite-domain condition → add ¬φ to the SAT instance (case (c));
       any freshenable variable involved → condition dropped (case (b)).

    3. {b Solve & instantiate.} WalkSAT [30], with the incremental CDCL
       core {!Rxv_sat.Inc} as the complete fallback, yields the
       finite-domain values; the witness is then canonicalized to the
       lexicographically minimal model by CDCL assumption probes, so the
       outcome is independent of which solver found it. Freshenable
       variables get surrogates outside the active domain; ΔR and the
       provenance rows of the new edges fall out by substitution.

    {b Skeleton caching.} The structural work — the augmented "+gen"
    queries per U/A choice — depends only on the ATG production set and
    which relations carry templates, not on the concrete update. A
    {!cache} (one per engine) keys that skeleton on the sorted
    template-relation signature, so steady-state translations rebuild
    only the per-update template/clause layer. gen_A is not copied: it
    is the store's Skolem table, so a probe of $gen on the whole $A is
    one {!Store.find_id}, and only a choice that leaves part of $A
    unconstrained lists the registry. *)

module Store = Rxv_dag.Store
module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple
module Schema = Rxv_relational.Schema
module Spj = Rxv_relational.Spj
module Database = Rxv_relational.Database
module Symbolic = Rxv_relational.Symbolic
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg
module Cnf = Rxv_sat.Cnf
module Walksat = Rxv_sat.Walksat
module Inc = Rxv_sat.Inc

type outcome =
  | Translated of {
      delta_r : Group_update.t;
      provenances : ((int * int) * Tuple.t) list;
          (** ground derivation rows to append to edge provenance *)
      sat_vars : int;
      sat_clauses : int;
      encode_ms : float;
      solve_ms : float;
      skeleton_hit : bool;
    }
  | Rejected of string

exception Reject_exn of string

let rejectf fmt = Fmt.kstr (fun s -> raise (Reject_exn s)) fmt

let now_ms () = Unix.gettimeofday () *. 1000.0

(* ---------- variable store with union-find and bindings ---------- *)

module Vars = struct
  type t = {
    mutable parent : int array;
    mutable binding : Value.t option array;
    mutable ty : Value.ty array;
    mutable n : int;
  }

  let create () =
    { parent = Array.make 16 0; binding = Array.make 16 None;
      ty = Array.make 16 Value.TBool; n = 0 }

  let grow t =
    let cap = Array.length t.parent in
    if t.n >= cap then begin
      let parent = Array.make (cap * 2) 0
      and binding = Array.make (cap * 2) None
      and ty = Array.make (cap * 2) Value.TBool in
      Array.blit t.parent 0 parent 0 cap;
      Array.blit t.binding 0 binding 0 cap;
      Array.blit t.ty 0 ty 0 cap;
      t.parent <- parent;
      t.binding <- binding;
      t.ty <- ty
    end

  let fresh t ty =
    grow t;
    let v = t.n in
    t.parent.(v) <- v;
    t.ty.(v) <- ty;
    t.n <- t.n + 1;
    v

  let rec find t v =
    if t.parent.(v) = v then v
    else begin
      let r = find t t.parent.(v) in
      t.parent.(v) <- r;
      r
    end

  let ty t v = t.ty.(find t v)
  let binding t v = t.binding.(find t v)

  let bind t v value =
    let r = find t v in
    match t.binding.(r) with
    | None ->
        if not (Value.has_ty t.ty.(r) value) then
          rejectf "type conflict binding variable";
        t.binding.(r) <- Some value
    | Some v' ->
        if not (Value.equal v' value) then
          rejectf "conflicting requirements: %a vs %a" Value.pp v' Value.pp
            value

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then begin
      if t.ty.(ra) <> t.ty.(rb) then rejectf "type conflict unifying variables";
      (match (t.binding.(ra), t.binding.(rb)) with
      | Some x, Some y when not (Value.equal x y) ->
          rejectf "conflicting requirements: %a vs %a" Value.pp x Value.pp y
      | Some x, None -> t.binding.(rb) <- Some x
      | None, Some y -> t.binding.(ra) <- Some y
      | _ -> ());
      t.parent.(ra) <- rb
    end

  (* resolve a symbolic value through current bindings *)
  let resolve t (s : Symbolic.sval) : Symbolic.sval =
    match s with
    | Symbolic.Known _ -> s
    | Symbolic.Var v -> (
        let r = find t v in
        match t.binding.(r) with
        | Some value -> Symbolic.Known value
        | None -> Symbolic.Var r)
end

(* ---------- fresh surrogate values (outside the active domain) ---------- *)

type freshener = { mutable counter : int; mutable int_base : int }

(* O(#relations) unless a delete left a relation's watermark stale above
   every exact one: each relation maintains its own Int watermark *)
let make_freshener (db : Database.t) =
  { counter = 0; int_base = Database.int_ceiling db + 1_000_000 }

let fresh_value f (ty : Value.ty) : Value.t =
  f.counter <- f.counter + 1;
  match ty with
  | Value.TStr -> Value.Str (Printf.sprintf "#fresh_%d" f.counter)
  | Value.TInt -> Value.Int (f.int_base + f.counter)
  | Value.TBool -> rejectf "cannot freshen a finite-domain value"

(* ---------- tuple templates ---------- *)

type template = {
  rname : string;
  fields : Symbolic.sval array;  (** keys always Known *)
  key : Value.t list;
}

(* Equality closure of a rule query, seeded with parameters and the
   required projection prefix; returns one symbolic tuple per FROM
   occurrence. Occurrences of the same base relation in one rule are
   distinct templates (distinct aliases). *)
let derive_templates (schema : Schema.db) (vars : Vars.t) (q : Spj.t)
    ~(params : Tuple.t) ~(prefix : Tuple.t) : (string * Symbolic.srow) list =
  (* term = (alias, attr); DSU over term indexes *)
  let terms = Hashtbl.create 32 in
  let parent = ref [||] in
  let value = ref [||] in
  let nterms = ref 0 in
  let intern (alias, attr) =
    match Hashtbl.find_opt terms (alias, attr) with
    | Some i -> i
    | None ->
        let i = !nterms in
        incr nterms;
        Hashtbl.replace terms (alias, attr) i;
        if i >= Array.length !parent then begin
          let np = Array.make (max 16 (2 * (i + 1))) 0 in
          Array.iteri (fun j v -> np.(j) <- v) !parent;
          Array.iteri (fun j _ -> if j >= Array.length !parent then np.(j) <- j) np;
          let nv = Array.make (Array.length np) None in
          Array.iteri (fun j v -> nv.(j) <- v) !value;
          parent := np;
          value := nv
        end;
        !parent.(i) <- i;
        i
  in
  let rec find i = if !parent.(i) = i then i else (let r = find !parent.(i) in !parent.(i) <- r; r) in
  let bind_term i v =
    let r = find i in
    match !value.(r) with
    | None -> !value.(r) <- Some v
    | Some v' ->
        if not (Value.equal v v') then
          rejectf "unsatisfiable edge: %a vs %a required for one column"
            Value.pp v' Value.pp v
  in
  let union_terms i j =
    let ri = find i and rj = find j in
    if ri <> rj then begin
      (match (!value.(ri), !value.(rj)) with
      | Some x, Some y when not (Value.equal x y) ->
          rejectf "unsatisfiable edge: %a vs %a required for one column"
            Value.pp x Value.pp y
      | Some x, None -> !value.(rj) <- Some x
      | None, Some y -> !value.(ri) <- Some y
      | _ -> ());
      !parent.(ri) <- rj
    end
  in
  (* seed with WHERE *)
  List.iter
    (fun (Spj.Eq (a, b)) ->
      match (a, b) with
      | Spj.Col (al, at), Spj.Col (bl, bt) ->
          union_terms (intern (al, at)) (intern (bl, bt))
      | Spj.Col (al, at), Spj.Const v | Spj.Const v, Spj.Col (al, at) ->
          bind_term (intern (al, at)) v
      | Spj.Col (al, at), Spj.Param k | Spj.Param k, Spj.Col (al, at) ->
          bind_term (intern (al, at)) params.(k)
      | Spj.Const x, Spj.Const y ->
          if not (Value.equal x y) then rejectf "rule predicate is constant false"
      | Spj.Const x, Spj.Param k | Spj.Param k, Spj.Const x ->
          if not (Value.equal x params.(k)) then
            rejectf "unsatisfiable edge: parameter mismatch"
      | Spj.Param k, Spj.Param k' ->
          if not (Value.equal params.(k) params.(k')) then
            rejectf "unsatisfiable edge: parameter mismatch")
    q.Spj.where;
  (* seed with the required projection prefix *)
  List.iteri
    (fun j (_, op) ->
      if j < Array.length prefix then
        match op with
        | Spj.Col (al, at) -> bind_term (intern (al, at)) prefix.(j)
        | Spj.Const v ->
            if not (Value.equal v prefix.(j)) then
              rejectf "unsatisfiable edge: constant projection mismatch"
        | Spj.Param k ->
            if not (Value.equal params.(k) prefix.(j)) then
              rejectf "unsatisfiable edge: parameter projection mismatch")
      q.Spj.select;
  (* one symbolic variable per unresolved class, shared across columns *)
  let class_var = Hashtbl.create 8 in
  let sval_of (alias, attr) ty : Symbolic.sval =
    let i = intern (alias, attr) in
    let r = find i in
    match !value.(r) with
    | Some v ->
        if not (Value.has_ty ty v) then
          rejectf "unsatisfiable edge: type mismatch on %s.%s" alias attr;
        Symbolic.Known v
    | None -> (
        match Hashtbl.find_opt class_var r with
        | Some v -> Symbolic.Var v
        | None ->
            let v = Vars.fresh vars ty in
            Hashtbl.replace class_var r v;
            Symbolic.Var v)
  in
  List.map
    (fun (alias, rname) ->
      let r = Schema.find_relation schema rname in
      let row =
        Array.map
          (fun (a : Schema.attribute) ->
            sval_of (alias, a.Schema.aname) a.Schema.ty)
          r.Schema.attrs
      in
      (rname, row))
    q.Spj.from

(* ---------- skeleton cache ---------- *)

(* One U/A source combination of one star rule, with the augmented
   "+gen" query prebuilt — per-update work is only source construction. *)
type choice_plan = {
  cp_from : (string * string) list;
      (** U aliases first, then A and $gen in greedy connected join order *)
  cp_u : string list;  (** aliases evaluated as template rows *)
  cp_q : Spj.t;
}

type rule_plan = {
  rp_a : string;
  rp_b : string;
  rp_sr : Atg.star_rule;
  rp_nparams : int;
  rp_schema : Schema.db;  (** rule schema augmented with $gen *)
  rp_choices : choice_plan list;
}

type counters = {
  skeleton_hits : int;
  skeleton_misses : int;
  learned_kept : int;
}

type cache = {
  mutable c_atg : Atg.t option;  (** a different ATG drops everything *)
  c_skeletons : (string list, rule_plan list) Hashtbl.t;
      (** the structural skeleton per template-relation signature *)
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_learned : int;
}

let create_cache () =
  {
    c_atg = None;
    c_skeletons = Hashtbl.create 8;
    c_hits = 0;
    c_misses = 0;
    c_learned = 0;
  }

let clear_cache c =
  c.c_atg <- None;
  Hashtbl.reset c.c_skeletons

let counters c =
  {
    skeleton_hits = c.c_hits;
    skeleton_misses = c.c_misses;
    learned_kept = c.c_learned;
  }

(* Build the rule plans for the current template signature. Everything
   here depends only on the ATG and on *which* relations have templates,
   so the result is cacheable across updates. *)
let build_skeleton (atg : Atg.t) (schema : Schema.db)
    ~(has_templates : string -> bool) : rule_plan list =
  let plan_rule (a_type, b_type, (sr : Atg.star_rule)) =
    let q = sr.Atg.query in
    let tpos = List.filter (fun (_, rname) -> has_templates rname) q.Spj.from in
    if tpos = [] then None
    else begin
      let param_tys = Atg.attr_tys atg a_type in
      let nparams = Array.length param_tys in
      (* pseudo-relation for gen_A; zero-arity parents (the root) get a
         single dummy column so the relation stays well-formed *)
      let gwidth = max 1 nparams in
      let gen_col i =
        if nparams = 0 then Schema.attr "p0" Value.TInt
        else Schema.attr (Printf.sprintf "p%d" i) param_tys.(i)
      in
      let gen_rel =
        Schema.relation "$gen"
          (List.init gwidth gen_col)
          ~key:(List.init gwidth (fun i -> Printf.sprintf "p%d" i))
      in
      let schema' = Schema.db (gen_rel :: schema.Schema.relations) in
      let rewrite_op = function
        | Spj.Param k -> Spj.Col ("$gen", Printf.sprintf "p%d" k)
        | op -> op
      in
      (* enumerate U/A choices over template-capable positions *)
      let choices =
        let rec go = function
          | [] -> [ [] ]
          | (alias, _) :: rest ->
              let sub = go rest in
              List.concat_map
                (fun c -> [ (alias, `U) :: c; (alias, `A) :: c ])
                sub
        in
        List.filter
          (fun c -> List.exists (fun (_, x) -> x = `U) c)
          (go tpos)
      in
      let plan_choice choice =
        (* the augmented, reordered query: U positions first, then gen,
           then the rest *)
        let is_u alias =
          match List.assoc_opt alias choice with Some `U -> true | _ -> false
        in
        let u_from, a_from =
          List.partition (fun (alias, _) -> is_u alias) q.Spj.from
        in
        let where_rw =
          List.map
            (fun (Spj.Eq (a, b)) -> Spj.Eq (rewrite_op a, rewrite_op b))
            q.Spj.where
        in
        (* Greedy connected join order: template positions (small) first,
           then repeatedly any position reachable from the placed prefix
           through an equality predicate, so Symbolic.run can hash-probe
           it instead of scanning. In particular gen_A — O(|view|) rows —
           is only enumerated when some choice genuinely leaves the
           parent attribute unconstrained. *)
        let from' =
          let connects placed alias =
            List.exists
              (fun (Spj.Eq (a, b)) ->
                match (a, b) with
                | Spj.Col (x, _), Spj.Col (y, _) ->
                    (x = alias && List.mem y placed)
                    || (y = alias && List.mem x placed)
                | _ -> false)
              where_rw
          in
          let rec order placed acc = function
            | [] -> List.rev acc
            | remaining ->
                let pick, rest =
                  match
                    List.partition
                      (fun (alias, _) -> connects placed alias)
                      remaining
                  with
                  | p :: ps, rest -> (p, ps @ rest)
                  | [], p :: rest -> (p, rest)
                  | [], [] -> assert false
                in
                order (fst pick :: placed) (pick :: acc) rest
          in
          order
            (List.map fst u_from)
            (List.rev u_from)
            (a_from @ [ ("$gen", "$gen") ])
        in
        let select' =
          List.init nparams (fun i ->
              let n = Printf.sprintf "p%d" i in
              (Printf.sprintf "$%s" n, Spj.Col ("$gen", n)))
          @ List.map (fun (n, op) -> (n, rewrite_op op)) q.Spj.select
        in
        let where' = where_rw in
        let q' =
          Spj.make ~name:(q.Spj.qname ^ "+gen") ~from:from' ~where:where'
            ~select:select'
        in
        { cp_from = from'; cp_u = List.map fst u_from; cp_q = q' }
      in
      Some
        {
          rp_a = a_type;
          rp_b = b_type;
          rp_sr = sr;
          rp_nparams = nparams;
          rp_schema = schema';
          rp_choices = List.map plan_choice choices;
        }
    end
  in
  List.filter_map plan_rule (Atg.star_rules atg)

(* gen_A as a symbolic source, read from the store's own Skolem table: a
   probe on the whole $A is one {!Store.find_id}; only a choice that
   leaves part of $A unconstrained lists the rows (ascending node id) *)
let gen_source store a_type nparams =
  if nparams = 0 then
    (* all zero-arity parents coincide; one dummy row suffices *)
    (if Store.gen_cardinal store a_type = 0 then Symbolic.Rows []
     else Symbolic.Rows [ [| Symbolic.Known (Value.Int 0) |] ])
  else
    Symbolic.Member
      {
        mem = (fun attr -> Store.find_id store a_type attr <> None);
        rows =
          lazy
            (List.map
               (fun id -> Symbolic.of_tuple (Store.node store id).Store.attr)
               (List.sort Int.compare (Store.gen_ids store a_type)));
      }

(* ---------- canonical models ---------- *)

(* Lexicographically minimal model (ascending variable index, false
   preferred) of [cnf], reached from any satisfying [witness] by CDCL
   assumption probes: fix variables left to right, testing with ¬v under
   the fixed prefix whenever the running model has v true. The result
   depends only on the formula — not on the witness or the solver that
   produced it — which is what makes cached and cold translations
   byte-identical. *)
let canonical_model (inc : Inc.t) nv (witness : Cnf.assignment) :
    Cnf.assignment =
  let m = ref witness in
  let fixed = ref [] in
  (* reversed prefix of decided literals *)
  for v = 1 to nv do
    if v < Array.length !m && !m.(v) then begin
      match Inc.solve ~assumptions:(List.rev ((-v) :: !fixed)) inc with
      | Inc.Sat m' ->
          m := m';
          fixed := -v :: !fixed
      | Inc.Unsat -> fixed := v :: !fixed
    end
    else fixed := -v :: !fixed
  done;
  let out = Array.make (nv + 1) false in
  List.iter (fun l -> if l > 0 then out.(l) <- true) !fixed;
  out

(* ---------- the translation ---------- *)

let translate (atg : Atg.t) (db : Database.t) (store : Store.t)
    ~(connect_edges : (int * int) list) ~seed ~cache : outcome =
  (match cache.c_atg with
  | Some a when a != atg -> clear_cache cache
  | _ -> ());
  cache.c_atg <- Some atg;
  try
    if connect_edges = [] then
      Translated
        { delta_r = []; provenances = []; sat_vars = 0; sat_clauses = 0;
          encode_ms = 0.; solve_ms = 0.; skeleton_hit = false }
    else begin
      let t_start = now_ms () in
      let schema = atg.Atg.schema in
      let vars = Vars.create () in
      let freshener = make_freshener db in
      (* -- step 1: templates -- *)
      let rule_for u =
        let a = (Store.node store u).Store.etype in
        match Atg.rule atg a with
        | Atg.R_star sr -> (a, sr)
        | _ -> rejectf "node %d is not a star parent" u
      in
      (* template pool keyed by (relation, key) *)
      let pool : (string * Value.t list, template) Hashtbl.t =
        Hashtbl.create 16
      in
      let add_template rname (row : Symbolic.srow) =
        let r = Schema.find_relation schema rname in
        (* keys must be derivable (Section 4.3: "a_i is known thanks to key
           preservation"); freshenable unknowns get surrogates now *)
        let key =
          Array.to_list
            (Array.map
               (fun i ->
                 match Vars.resolve vars row.(i) with
                 | Symbolic.Known v -> v
                 | Symbolic.Var x -> (
                     match Value.finite_domain (Vars.ty vars x) with
                     | Some _ ->
                         rejectf
                           "key attribute %s.%s is underdetermined over a \
                            finite domain"
                           rname r.Schema.attrs.(i).Schema.aname
                     | None ->
                         let v = fresh_value freshener (Vars.ty vars x) in
                         Vars.bind vars x v;
                         v))
               r.Schema.key)
        in
        (* existing tuple with this key: unify or reject; fully matching
           templates need no insertion *)
        (match Database.find_by_key db rname key with
        | Some existing ->
            Array.iteri
              (fun i v ->
                match Vars.resolve vars row.(i) with
                | Symbolic.Known v' ->
                    if not (Value.equal v v') then
                      rejectf
                        "insertion conflicts with existing %s tuple on key"
                        rname
                | Symbolic.Var x -> Vars.bind vars x v)
              existing
        | None -> (
            match Hashtbl.find_opt pool (rname, key) with
            | Some prev ->
                (* unify the two templates field-wise *)
                Array.iteri
                  (fun i s ->
                    match (Vars.resolve vars prev.fields.(i), Vars.resolve vars s) with
                    | Symbolic.Known a, Symbolic.Known b ->
                        if not (Value.equal a b) then
                          rejectf "conflicting %s templates on key" rname
                    | Symbolic.Known a, Symbolic.Var x
                    | Symbolic.Var x, Symbolic.Known a ->
                        Vars.bind vars x a
                    | Symbolic.Var x, Symbolic.Var y -> Vars.union vars x y)
                  row
            | None -> Hashtbl.replace pool (rname, key) { rname; fields = row; key }))
      in
      List.iter
        (fun (u, ra) ->
          let _a, sr = rule_for u in
          let params = (Store.node store u).Store.attr in
          let prefix = (Store.node store ra).Store.attr in
          let templates =
            derive_templates schema vars sr.Atg.query ~params ~prefix
          in
          List.iter (fun (rname, row) -> add_template rname row) templates)
        connect_edges;
      let templates_by_rel : (string, template list) Hashtbl.t =
        Hashtbl.create 8
      in
      Hashtbl.iter
        (fun _ t ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt templates_by_rel t.rname)
          in
          Hashtbl.replace templates_by_rel t.rname (t :: prev))
        pool;
      let connect_set = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace connect_set e ()) connect_edges;
      (* -- skeleton: fetch or build the structural plan -- *)
      let sk_key =
        List.sort compare
          (Hashtbl.fold (fun k _ acc -> k :: acc) templates_by_rel [])
      in
      let skeleton_hit, rules =
        match Hashtbl.find_opt cache.c_skeletons sk_key with
        | Some sk ->
            cache.c_hits <- cache.c_hits + 1;
            (true, sk)
        | None ->
            cache.c_misses <- cache.c_misses + 1;
            let sk =
              build_skeleton atg schema
                ~has_templates:(Hashtbl.mem templates_by_rel)
            in
            Hashtbl.replace cache.c_skeletons sk_key sk;
            (false, sk)
      in
      (* -- step 2: side-effect scan over all edge views -- *)
      let cnf = Cnf.create () in
      let clauses = ref [] in
      (* pending ¬φ clauses, as constraint lists *)
      let intended_rows : ((int * int) * Symbolic.srow) list ref = ref [] in
      let freshenable x = Value.finite_domain (Vars.ty vars x) = None in
      let scan_rule (rp : rule_plan) =
        let a_type = rp.rp_a and b_type = rp.rp_b and sr = rp.rp_sr in
        let nparams = rp.rp_nparams in
        let gen_src = gen_source store a_type nparams in
        List.iter
          (fun cp ->
            let source_of (alias, rname) =
              if alias = "$gen" then gen_src
              else if List.mem alias cp.cp_u then
                Symbolic.Rows
                  (List.map
                     (fun t -> Array.map (Vars.resolve vars) t.fields)
                     (Hashtbl.find templates_by_rel rname))
              else
                Symbolic.Concrete (Database.relation db rname, fun _ -> true)
            in
            let sources = Array.of_list (List.map source_of cp.cp_from) in
            let rows = Symbolic.run rp.rp_schema cp.cp_q sources in
            List.iter
              (fun { Symbolic.row; constraints } ->
                (* resolve through current bindings *)
                let row = Array.map (Vars.resolve vars) row in
                let constraints =
                  List.filter_map
                    (fun (Symbolic.Ceq (x, y)) ->
                      match (Vars.resolve vars x, Vars.resolve vars y) with
                      | Symbolic.Known a, Symbolic.Known b ->
                          if Value.equal a b then None
                          else Some (`False : [ `False | `C of Symbolic.constr ])
                      | x', y' -> Some (`C (Symbolic.Ceq (x', y'))))
                    constraints
                in
                if not (List.mem `False constraints) then begin
                  let constraints =
                    List.filter_map
                      (function `C c -> Some c | `False -> None)
                      constraints
                  in
                  (* the row's identity: parent attr ++ child prefix *)
                  let parent_attr = Array.sub row 0 nparams in
                  let child_attr =
                    Array.sub row nparams sr.Atg.attr_width
                  in
                  let ground_tuple arr =
                    let ok = Array.for_all (function Symbolic.Known _ -> true | _ -> false) arr in
                    if ok then
                      Some (Array.map (function Symbolic.Known v -> v | _ -> assert false) arr)
                    else None
                  in
                  let intended =
                    match (ground_tuple parent_attr, ground_tuple child_attr) with
                    | Some pa, Some ca -> (
                        match
                          ( Store.find_id store a_type pa,
                            Store.find_id store b_type ca )
                        with
                        | Some pid, Some cid ->
                            if
                              Store.mem_edge store pid cid
                              || Hashtbl.mem connect_set (pid, cid)
                            then Some (pid, cid)
                            else None
                        | _ -> None)
                    | _ -> None
                  in
                  match intended with
                  | Some edge ->
                      if constraints = [] then begin
                        (* a definite new derivation of an intended edge *)
                        let full =
                          Array.sub row nparams (Array.length row - nparams)
                        in
                        intended_rows := (edge, full) :: !intended_rows
                      end
                      (* conditional derivations of intended edges impose
                         nothing; if the condition ends up true the
                         derivation is harmless *)
                  | None -> (
                      (* side-effect row *)
                      match constraints with
                      | [] ->
                          rejectf
                            "insertion has a certain side effect on \
                             edge_%s_%s"
                            a_type b_type
                      | cs ->
                          if
                            List.exists
                              (fun (Symbolic.Ceq (x, y)) ->
                                let fv = function
                                  | Symbolic.Var v -> freshenable v
                                  | Symbolic.Known _ -> false
                                in
                                fv x || fv y)
                              cs
                          then () (* case (b): freshening falsifies φ *)
                          else clauses := cs :: !clauses)
                end)
              rows)
          rp.rp_choices
      in
      List.iter scan_rule rules;
      (* -- step 3: SAT over finite-domain variables -- *)
      let prop_of_eq : (int * Value.t, int) Hashtbl.t = Hashtbl.create 16 in
      let domain_vars : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let lit_var_eq_value x v =
        let x = Vars.find vars x in
        match Hashtbl.find_opt prop_of_eq (x, v) with
        | Some p -> p
        | None ->
            let p =
              Cnf.var cnf (Printf.sprintf "x%d=%s" x (Value.to_string v))
            in
            Hashtbl.replace prop_of_eq (x, v) p;
            Hashtbl.replace domain_vars x ();
            p
      in
      let eq_aux : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      let lit_var_eq_var x y =
        let x = Vars.find vars x and y = Vars.find vars y in
        let x, y = if x <= y then (x, y) else (y, x) in
        match Hashtbl.find_opt eq_aux (x, y) with
        | Some e -> e
        | None ->
            let e = Cnf.var cnf (Printf.sprintf "x%d=x%d" x y) in
            Hashtbl.replace eq_aux (x, y) e;
            let dom =
              match Value.finite_domain (Vars.ty vars x) with
              | Some d -> d
              | None -> assert false
            in
            List.iter
              (fun v ->
                let px = lit_var_eq_value x v and py = lit_var_eq_value y v in
                (* e → (px ↔ py), ¬e → ¬(px ∧ py) *)
                Cnf.add_clause cnf [ -e; -px; py ];
                Cnf.add_clause cnf [ -e; -py; px ];
                Cnf.add_clause cnf [ e; -px; -py ])
              dom;
            (* e → ∨_v (px ∧ py) is implied by exactly-one; add e ∨ ¬same
               via: if px and py pick the same value then e *)
            e
      in
      List.iter
        (fun cs ->
          let lits =
            List.map
              (fun (Symbolic.Ceq (x, y)) ->
                match (x, y) with
                | Symbolic.Var a, Symbolic.Known v
                | Symbolic.Known v, Symbolic.Var a ->
                    -(lit_var_eq_value a v)
                | Symbolic.Var a, Symbolic.Var b -> -(lit_var_eq_var a b)
                | Symbolic.Known _, Symbolic.Known _ -> assert false)
              cs
          in
          try Cnf.add_clause cnf lits
          with Cnf.Trivial_conflict ->
            rejectf "side-effect condition is unavoidable")
        !clauses;
      (* exactly-one domain constraints *)
      Hashtbl.iter
        (fun x () ->
          match Value.finite_domain (Vars.ty vars x) with
          | Some dom ->
              Cnf.exactly_one cnf (List.map (lit_var_eq_value x) dom)
          | None -> ())
        domain_vars;
      let t_solve = now_ms () in
      (* -- solve: WalkSAT → complete CDCL — any witness is then
         canonicalized, so every path yields the same model -- *)
      let nv = Cnf.nvars cnf in
      let model =
        if Cnf.nclauses cnf = 0 then Some (Array.make (nv + 1) false)
        else begin
          let inc = Inc.create () in
          Inc.add_cnf inc cnf;
          let model =
            match Walksat.solve_result ~seed cnf with
            | Walksat.Sat w -> Some (canonical_model inc nv w)
            | Walksat.Unknown -> (
                (* complete fallback: decide the instance exactly *)
                match Inc.solve inc with
                | Inc.Sat w -> Some (canonical_model inc nv w)
                | Inc.Unsat -> None)
          in
          cache.c_learned <- cache.c_learned + Inc.n_learned inc;
          model
        end
      in
      let t_solved = now_ms () in
      match model with
      | None -> Rejected "no side-effect-free instantiation exists (SAT unsat)"
      | Some model ->
          (* bind finite-domain vars from the model *)
          Hashtbl.iter
            (fun x () ->
              match Vars.binding vars x with
              | Some _ -> ()
              | None -> (
                  match Value.finite_domain (Vars.ty vars x) with
                  | Some dom ->
                      let v =
                        match
                          List.find_opt
                            (fun v ->
                              match Hashtbl.find_opt prop_of_eq (Vars.find vars x, v) with
                              | Some p -> model.(p)
                              | None -> false)
                            dom
                        with
                        | Some v -> v
                        | None -> List.hd dom
                      in
                      Vars.bind vars x v
                  | None -> ()))
            domain_vars;
          (* instantiate templates *)
          let ground s =
            match Vars.resolve vars s with
            | Symbolic.Known v -> v
            | Symbolic.Var x ->
                let v =
                  match Value.finite_domain (Vars.ty vars x) with
                  | Some dom -> List.hd dom
                  | None -> fresh_value freshener (Vars.ty vars x)
                in
                Vars.bind vars x v;
                v
          in
          let delta_r =
            Hashtbl.fold
              (fun _ t acc ->
                Group_update.Insert (t.rname, Array.map ground t.fields) :: acc)
              pool []
          in
          let provenances =
            List.map
              (fun (edge, row) -> (edge, Array.map ground row))
              !intended_rows
          in
          Translated
            {
              delta_r = List.sort compare delta_r;
              provenances;
              sat_vars = Cnf.nvars cnf;
              sat_clauses = Cnf.nclauses cnf;
              encode_ms = t_solve -. t_start;
              solve_ms = t_solved -. t_solve;
              skeleton_hit;
            }
    end
  with Reject_exn msg -> Rejected msg
