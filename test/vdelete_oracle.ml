(** Reference implementations of Algorithm delete (Fig. 9) that the
    library's {!Rxv_core.Vdelete} is checked against:

    - {!translate}: the same greedy source choice, but deciding whether a
      source is still referenced from an index built by scanning the
      provenance of every surviving edge of V. It must agree with
      [Vdelete.translate] byte for byte, rejection messages included.
    - {!minimal_deletions}: the smallest ΔR among all source choices, by
      brute force (the Theorem 3 oracle). Exponential; tiny instances
      only. *)

module Store = Rxv_dag.Store
module Tuple = Rxv_relational.Tuple
module Spj = Rxv_relational.Spj
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg
module Vdelete = Rxv_core.Vdelete

(* (parent type, child type) -> key extraction positions of the rule *)
let source_extractors (atg : Atg.t) :
    (string * string, (string * int list) list) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (a, b, sr) ->
      let kops =
        List.map
          (fun (_alias, rname, positions) -> (rname, positions))
          (Spj.key_output_positions atg.Atg.schema sr.Atg.query)
      in
      Hashtbl.replace tbl (a, b) kops)
    (Atg.star_rules atg);
  tbl

let sources_of_row (extractors : (string * int list) list) (row : Tuple.t) :
    Vdelete.source list =
  List.map
    (fun (rname, positions) ->
      (rname, List.map (fun i -> row.(i)) positions))
    extractors

(* the sources referenced by the provenance of every edge outside
   [delta_v], by a scan of all of V *)
let referenced_sources atg store ~delta_v =
  let extractors = source_extractors atg in
  let dv = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace dv e ()) delta_v;
  let referenced : (Vdelete.source, unit) Hashtbl.t = Hashtbl.create 1024 in
  Store.iter_edges
    (fun u v info ->
      if (not (Hashtbl.mem dv (u, v))) && info.Store.provenance <> [] then
        let a = (Store.node store u).Store.etype
        and b = (Store.node store v).Store.etype in
        match Hashtbl.find_opt extractors (a, b) with
        | None -> ()
        | Some ext ->
            List.iter
              (fun row ->
                List.iter
                  (fun s -> Hashtbl.replace referenced s ())
                  (sources_of_row ext row))
              info.Store.provenance)
    store;
  (extractors, referenced)

let translate (atg : Atg.t) (store : Store.t) ~(delta_v : (int * int) list)
    : Vdelete.outcome =
  let extractors, referenced = referenced_sources atg store ~delta_v in
  let extractors_for u v =
    Hashtbl.find_opt extractors
      ((Store.node store u).Store.etype, (Store.node store v).Store.etype)
  in
  let chosen : (Vdelete.source, unit) Hashtbl.t = Hashtbl.create 16 in
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
        List.iter
          (fun row ->
            let srcs = sources_of_row ext row in
            let eligible =
              List.filter (fun s -> not (Hashtbl.mem referenced s)) srcs
            in
            match
              ( List.find_opt (fun s -> Hashtbl.mem chosen s) eligible,
                eligible )
            with
            | Some _, _ -> ()
            | None, s :: _ -> Hashtbl.replace chosen s ()
            | None, [] ->
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
    Vdelete.Translated (List.sort compare dr)
  with Reject msg -> Vdelete.Rejected msg

let minimal_deletions (atg : Atg.t) (store : Store.t)
    ~(delta_v : (int * int) list) : Group_update.t option =
  let extractors, referenced = referenced_sources atg store ~delta_v in
  (* candidate sets per view row to delete *)
  let rows =
    List.concat_map
      (fun (u, v) ->
        let a = (Store.node store u).Store.etype
        and b = (Store.node store v).Store.etype in
        match Hashtbl.find_opt extractors (a, b) with
        | None -> []
        | Some ext ->
            List.map
              (fun row ->
                List.filter
                  (fun s -> not (Hashtbl.mem referenced s))
                  (sources_of_row ext row))
              (Store.edge_info store u v).Store.provenance)
      delta_v
  in
  if List.exists (fun cands -> cands = []) rows then None
  else begin
    let best = ref None in
    let rec go acc = function
      | [] -> (
          let size = List.length acc in
          match !best with
          | Some (s, _) when s <= size -> ()
          | _ -> best := Some (size, acc))
      | cands :: rest ->
          List.iter
            (fun s ->
              if List.mem s acc then go acc rest else go (s :: acc) rest)
            cands
    in
    go [] rows;
    Option.map
      (fun (_, srcs) ->
        List.sort compare
          (List.map (fun (r, k) -> Group_update.Delete (r, k)) srcs))
      !best
  end
