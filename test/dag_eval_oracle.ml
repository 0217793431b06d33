(** The reference two-pass evaluator that {!Rxv_core.Dag_eval} is checked
    against: the paper's evaluation (Section 3.2) as plainly as it can be
    written. The bottom-up pass fills every DP row at every node of L and
    memoizes every node's text length; the top-down pass walks every
    descendant for a [//] step. {!Dag_eval} computes a cell only where it
    is read, starts anchored value filters from their text nodes and
    answers a [//] step followed by a label step through M; both must
    produce the same six result fields.

    O(|p|·|V|) on every path. A snapshot read is checked against {!eval}
    of the live structures at the instant the snapshot was captured. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Bitset = Rxv_dag.Bitset
module Ast = Rxv_xpath.Ast
module Plan = Rxv_xpath.Plan
module Dag_eval = Rxv_core.Dag_eval

type src = {
  s_node : int -> Store.node;
  s_children : int -> int list;
  s_parents : int -> int list;
  s_root : unit -> int;
  s_iter_topo : (int -> unit) -> unit;  (** forward L order: leaves first *)
  s_slot_of : int -> int;
  s_anc_intersects : int -> Bitset.t -> bool;  (** by node id *)
  s_union_row_into : int -> dst:Bitset.t -> unit;  (** by node id *)
}

let live_src (store : Store.t) (l : Topo.t) (m : Reach.t) : src =
  {
    s_node = (fun id -> Store.node store id);
    s_children = (fun id -> Store.children store id);
    s_parents = (fun id -> Store.parents store id);
    s_root = (fun () -> Store.root store);
    s_iter_topo = (fun f -> Topo.iter f l);
    s_slot_of = (fun id -> Reach.slot_of m id);
    s_anc_intersects = (fun id bits -> Reach.anc_intersects m id bits);
    s_union_row_into = (fun id ~dst -> Reach.union_row_into m id ~dst);
  }

(* ---- text equality via a memoized length DP, saturated at cap + 1 ---- *)

let rec text_len src lens ~cap id =
  match Hashtbl.find_opt lens id with
  | Some l -> l
  | None ->
      let n = src.s_node id in
      let own =
        match n.Store.text with Some s -> String.length s | None -> 0
      in
      let l = sum_text_lens src lens ~cap own (src.s_children id) in
      Hashtbl.replace lens id l;
      l

and sum_text_lens src lens ~cap acc = function
  | c :: rest when acc <= cap ->
      sum_text_lens src lens ~cap (acc + text_len src lens ~cap c) rest
  | _ -> min acc (cap + 1)

let text_eq src lens ~cap id s =
  if text_len src lens ~cap id <> String.length s then false
  else begin
    let buf = Buffer.create (String.length s) in
    let rec go id =
      let n = src.s_node id in
      (match n.Store.text with
      | Some t -> Buffer.add_string buf t
      | None -> ());
      List.iter go (src.s_children id)
    in
    go id;
    String.equal (Buffer.contents buf) s
  end

(* ---- bottom-up: every row at every node ---- *)

(* sat.(k).(i): bit set at a node's slot ⟺ steps i..n of filter k are
   satisfiable at the node *)
type tables = {
  sat : Bitset.t array array;
  lens : (int, int) Hashtbl.t;
  len_cap : int;
}

let create_tables (p : Plan.t) =
  {
    sat =
      Array.map
        (fun pf ->
          Array.init
            (Array.length pf.Plan.steps + 1)
            (fun _ -> Bitset.create ()))
        p.Plan.pfilters;
    lens = Hashtbl.create 256;
    len_cap =
      Array.fold_left
        (fun acc pf ->
          match pf.Plan.target with
          | Plan.T_text_eq s -> max acc (String.length s)
          | Plan.T_exists -> acc)
        0 p.Plan.pfilters;
  }

let filter_holds (p : Plan.t) (tb : tables) src (q : Plan.filter) id : bool =
  let rec go = function
    | Plan.F_label a ->
        String.equal (src.s_node id).Store.etype p.Plan.labels.(a)
    | Plan.F_and (x, y) -> go x && go y
    | Plan.F_or (x, y) -> go x || go y
    | Plan.F_not x -> not (go x)
    | Plan.F_path k -> Bitset.get tb.sat.(k).(0) (src.s_node id).Store.slot
  in
  go q

let fill_node (p : Plan.t) (tb : tables) src v slot kids =
  Array.iteri
    (fun k pf ->
      let steps = pf.Plan.steps in
      let nsteps = Array.length steps in
      for i = nsteps downto 0 do
        let holds =
          if i = nsteps then
            match pf.Plan.target with
            | Plan.T_exists -> true
            | Plan.T_text_eq s -> text_eq src tb.lens ~cap:tb.len_cap v s
          else
            match steps.(i) with
            | Plan.S_filter q ->
                filter_holds p tb src q v
                && Bitset.get tb.sat.(k).(i + 1) slot
            | Plan.S_label a ->
                let name = p.Plan.labels.(a) in
                List.exists
                  (fun u ->
                    let nu = src.s_node u in
                    String.equal nu.Store.etype name
                    && Bitset.get tb.sat.(k).(i + 1) nu.Store.slot)
                  kids
            | Plan.S_wild ->
                List.exists
                  (fun u ->
                    Bitset.get tb.sat.(k).(i + 1) (src.s_node u).Store.slot)
                  kids
            | Plan.S_desc ->
                Bitset.get tb.sat.(k).(i + 1) slot
                || List.exists
                     (fun u ->
                       Bitset.get tb.sat.(k).(i) (src.s_node u).Store.slot)
                     kids
        in
        if holds then Bitset.set tb.sat.(k).(i) slot
      done)
    p.Plan.pfilters

let bottom_up src (p : Plan.t) (tb : tables) =
  src.s_iter_topo (fun v ->
      let n = src.s_node v in
      fill_node p tb src v n.Store.slot (src.s_children v))

(* ---- top-down: forward frontiers, backward refinement, Ep(r), S ---- *)

module IdSet = struct
  type t = (int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add (s : t) id = Hashtbl.replace s id ()
  let mem (s : t) id = Hashtbl.mem s id
  let iter f (s : t) = Hashtbl.iter (fun id () -> f id) s
  let cardinal (s : t) = Hashtbl.length s
  let to_list (s : t) = Hashtbl.fold (fun id () acc -> id :: acc) s []

  let of_list ids =
    let s = create () in
    List.iter (add s) ids;
    s
end

let slots_of src (s : IdSet.t) =
  let bits = Bitset.create () in
  IdSet.iter (fun id -> Bitset.set bits (src.s_slot_of id)) s;
  bits

let in_desc_or_self src (base : IdSet.t) base_bits id =
  IdSet.mem base id || src.s_anc_intersects id base_bits

let top_down src (p : Plan.t) (tb : tables) : Dag_eval.result =
  let root = src.s_root () in
  let nsteps = Array.length p.Plan.outer in
  let outer = p.Plan.outer in
  let frontier = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  IdSet.add frontier.(0) root;
  for i = 0 to nsteps - 1 do
    let prev = frontier.(i) and next = frontier.(i + 1) in
    match outer.(i) with
    | Plan.S_filter q ->
        IdSet.iter
          (fun v -> if filter_holds p tb src q v then IdSet.add next v)
          prev
    | Plan.S_label a ->
        let name = p.Plan.labels.(a) in
        IdSet.iter
          (fun v ->
            List.iter
              (fun u ->
                if String.equal (src.s_node u).Store.etype name then
                  IdSet.add next u)
              (src.s_children v))
          prev
    | Plan.S_wild ->
        IdSet.iter
          (fun v -> List.iter (IdSet.add next) (src.s_children v))
          prev
    | Plan.S_desc ->
        let rec go u =
          if not (IdSet.mem next u) then begin
            IdSet.add next u;
            List.iter go (src.s_children u)
          end
        in
        IdSet.iter go prev
  done;
  let back = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  IdSet.iter (IdSet.add back.(nsteps)) frontier.(nsteps);
  for i = nsteps - 1 downto 0 do
    let bi1 = back.(i + 1) and bi = back.(i) in
    match outer.(i) with
    | Plan.S_filter _ -> IdSet.iter (IdSet.add bi) bi1
    | Plan.S_label _ | Plan.S_wild ->
        IdSet.iter
          (fun w ->
            if List.exists (IdSet.mem bi1) (src.s_children w) then
              IdSet.add bi w)
          frontier.(i)
    | Plan.S_desc ->
        let bits = slots_of src bi1 in
        IdSet.iter (fun id -> src.s_union_row_into id ~dst:bits) bi1;
        IdSet.iter
          (fun w ->
            if Bitset.get bits (src.s_slot_of w) then IdSet.add bi w)
          frontier.(i)
  done;
  let selected = IdSet.to_list back.(nsteps) in
  let arrival = Hashtbl.create 64 in
  let active = ref (IdSet.of_list selected) in
  let i = ref nsteps in
  let continue = ref true in
  while !continue && !i >= 1 do
    let bprev = back.(!i - 1) in
    (match outer.(!i - 1) with
    | Plan.S_filter _ -> decr i
    | Plan.S_label _ | Plan.S_wild ->
        IdSet.iter
          (fun v ->
            List.iter
              (fun u ->
                if IdSet.mem bprev u then Hashtbl.replace arrival (u, v) !i)
              (src.s_parents v))
          !active;
        continue := false
    | Plan.S_desc ->
        let bprev_bits = slots_of src bprev in
        IdSet.iter
          (fun v ->
            List.iter
              (fun u ->
                if in_desc_or_self src bprev bprev_bits u then
                  Hashtbl.replace arrival (u, v) !i)
              (src.s_parents v))
          !active;
        let pass = IdSet.create () in
        IdSet.iter
          (fun v -> if IdSet.mem bprev v then IdSet.add pass v)
          !active;
        active := pass;
        decr i);
    if IdSet.cardinal !active = 0 then continue := false
  done;
  let zero_move = !i = 0 && IdSet.cardinal !active > 0 in
  let side_delete = IdSet.create () in
  let needs = Array.init (nsteps + 1) (fun _ -> IdSet.create ()) in
  if selected <> [] then begin
    Hashtbl.iter
      (fun (u, _) j ->
        if j >= 1 then
          match outer.(j - 1) with
          | Plan.S_desc -> IdSet.add needs.(j) u
          | Plan.S_label _ | Plan.S_wild | Plan.S_filter _ ->
              IdSet.add needs.(j - 1) u)
      arrival;
    for j = nsteps downto 1 do
      let need = needs.(j) in
      if IdSet.cardinal need > 0 then
        match outer.(j - 1) with
        | Plan.S_filter _ -> IdSet.iter (IdSet.add needs.(j - 1)) need
        | Plan.S_label _ | Plan.S_wild ->
            IdSet.iter
              (fun x ->
                List.iter
                  (fun w ->
                    if IdSet.mem back.(j - 1) w then
                      IdSet.add needs.(j - 1) w
                    else IdSet.add side_delete w)
                  (src.s_parents x))
              need
        | Plan.S_desc ->
            let bprev = back.(j - 1) in
            let bprev_bits = slots_of src bprev in
            let visited = IdSet.create () in
            let queue = Queue.create () in
            IdSet.iter
              (fun x ->
                IdSet.add visited x;
                Queue.add x queue)
              need;
            while not (Queue.is_empty queue) do
              let y = Queue.pop queue in
              let y_starts = IdSet.mem bprev y in
              if y_starts then IdSet.add needs.(j - 1) y;
              List.iter
                (fun w ->
                  if in_desc_or_self src bprev bprev_bits w then begin
                    if not (IdSet.mem visited w) then begin
                      IdSet.add visited w;
                      Queue.add w queue
                    end
                  end
                  else if not y_starts then IdSet.add side_delete w)
                (src.s_parents y)
            done
    done
  end;
  let side_insert = IdSet.create () in
  IdSet.iter (IdSet.add side_insert) side_delete;
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          if not (Hashtbl.mem arrival (w, v)) then IdSet.add side_insert w)
        (src.s_parents v))
    selected;
  {
    Dag_eval.selected;
    selected_types =
      List.map (fun id -> ((src.s_node id).Store.etype, id)) selected;
    arrival_edges = Hashtbl.fold (fun e _ acc -> e :: acc) arrival [];
    side_effects = IdSet.to_list side_insert;
    side_effects_delete = IdSet.to_list side_delete;
    zero_move_match = zero_move;
  }

let eval_src src (path : Ast.path) : Dag_eval.result =
  let p = Plan.compile path in
  let tb = create_tables p in
  bottom_up src p tb;
  top_down src p tb

let eval store l m path = eval_src (live_src store l m) path
