(** Algorithm delete (Fig. 9): PTIME translation of group view deletions
    to base-table deletions under key preservation (Theorem 1).

    Each view tuple to delete is a key-preserved SPJ row riding on an edge
    of ΔV (its provenance). The deletable source Sr(Q, t) of a row is read
    off the row itself — key preservation puts every base occurrence's key
    in the projection — and a row can be deleted exactly when some source
    tuple is referenced by *no* surviving view row, across all the edge
    views (Section 4.2).

    That check does not scan V. The surviving rows that can reference a
    source (R, key) sit on the edges of the parents that tuple feeds,
    under each star rule with R in its FROM clause; the pinned impact
    query of {!Impact} names those parents against [db]. Only their edges
    to the rule's child type, minus ΔV, are searched for a provenance row
    naming the source; when a rule's impact cannot be localized, every
    live parent of its type is. A candidate source is decided only when
    no earlier source of its row qualified, and at most once per call.
    Each decision costs one impact query per star rule naming the
    source's relation, plus the edges of the parents it returns: a
    translation runs at most one decision per source of a ΔV provenance
    row, where a scan of every surviving edge costs O(|V|). Both stay
    within the paper's O(|ΔV|·(|V(I)| − |ΔV|)) bound.

    When several sources qualify, we prefer one whose deletion is already
    in ΔR — a greedy nod to the minimal-deletion problem, which is
    NP-complete even under key preservation (Theorem 3), so no attempt at
    exact minimality is made here. *)

module Store = Rxv_dag.Store
module Tuple = Rxv_relational.Tuple
module Value = Rxv_relational.Value
module Spj = Rxv_relational.Spj
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg

type source = string * Value.t list  (** (relation, key) *)

type outcome =
  | Translated of Group_update.t
  | Rejected of string

(* Per star rule (A, B): the rule, and the key extraction positions of
   each of its FROM occurrences as (relation, positions). *)
let rule_extractors (atg : Atg.t) =
  List.map
    (fun (a, b, sr) ->
      ( (a, b),
        ( sr,
          List.map
            (fun (_alias, rname, positions) -> (rname, positions))
            (Spj.key_output_positions atg.Atg.schema sr.Atg.query) ) ))
    (Atg.star_rules atg)

(** Deletable source of one provenance row. *)
let sources_of_row (extractors : (string * int list) list) (row : Tuple.t) :
    source list =
  List.map
    (fun (rname, positions) ->
      (rname, List.map (fun i -> row.(i)) positions))
    extractors

(* does [row] name the source (rname, key) through any occurrence? *)
let row_names extractors row rname key =
  List.exists
    (fun (r, positions) ->
      String.equal r rname
      && List.for_all2 (fun i k -> Value.equal row.(i) k) positions key)
    extractors

(** [translate atg db store ~delta_v] computes ΔR for the edge deletions
    [delta_v], or rejects when some view row has no side-effect-free
    source. [db] must be the database [store] publishes. *)
let translate (atg : Atg.t) (db : Database.t) (store : Store.t)
    ~(delta_v : (int * int) list) : outcome =
  let rules = rule_extractors atg in
  let extractors_for u v =
    let a = (Store.node store u).Store.etype
    and b = (Store.node store v).Store.etype in
    Option.map snd (List.assoc_opt (a, b) rules)
  in
  let dv = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace dv e ()) delta_v;
  (* is the source referenced by a provenance row of a surviving edge? *)
  let referenced_memo : (source, bool) Hashtbl.t = Hashtbl.create 16 in
  let referenced_by_rule (rname, key) ((a, b), (sr, ext)) =
    let parents =
      List.concat_map
        (fun (alias, r) ->
          if String.equal r rname then
            Impact.parents db atg store a sr.Atg.query ~alias ~rname key
          else [])
        sr.Atg.query.Spj.from
    in
    List.exists
      (fun p ->
        List.exists
          (fun c ->
            String.equal (Store.node store c).Store.etype b
            && (not (Hashtbl.mem dv (p, c)))
            && List.exists
                 (fun row -> row_names ext row rname key)
                 (Store.edge_info store p c).Store.provenance)
          (Store.children store p))
      (List.sort_uniq compare parents)
  in
  let referenced s =
    match Hashtbl.find_opt referenced_memo s with
    | Some r -> r
    | None ->
        let r = List.exists (referenced_by_rule s) rules in
        Hashtbl.replace referenced_memo s r;
        r
  in
  let chosen : (source, unit) Hashtbl.t = Hashtbl.create 16 in
  let exception Reject of string in
  try
    List.iter
      (fun (u, v) ->
        if not (Store.mem_edge store u v) then
          raise
            (Reject (Printf.sprintf "edge (%d, %d) is not in the view" u v));
        let info = Store.edge_info store u v in
        let ext =
          match extractors_for u v with
          | Some e -> e
          | None ->
              raise
                (Reject
                   (Printf.sprintf
                      "edge (%d, %d) is structural and cannot be deleted" u v))
        in
        (* every derivation of the edge must lose a source; a chosen
           source was eligible when chosen, so a row naming one is
           covered already, and otherwise the first eligible source is
           taken, deciding only the sources before it *)
        List.iter
          (fun row ->
            let srcs = sources_of_row ext row in
            if not (List.exists (Hashtbl.mem chosen) srcs) then
              match List.find_opt (fun s -> not (referenced s)) srcs with
              | Some s -> Hashtbl.replace chosen s ()
              | None ->
                raise
                  (Reject
                     (Fmt.str
                        "view tuple %a of edge_%s_%s has no side-effect-free \
                         source"
                        Tuple.pp row
                        (Store.node store u).Store.etype
                        (Store.node store v).Store.etype)))
          info.Store.provenance)
      delta_v;
    let dr =
      Hashtbl.fold
        (fun (rname, key) () acc -> Group_update.Delete (rname, key) :: acc)
        chosen []
    in
    Translated (List.sort compare dr)
  with Reject msg -> Rejected msg
