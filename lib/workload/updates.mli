(** The update workloads of Section 5: W1 ("//" + value filters), W2 ("/"
    + value filters), W3 ("/" + structural and value filters). Targets are
    sampled from the actual store so every operation hits real data. *)

module Store = Rxv_dag.Store
module Xupdate = Rxv_core.Xupdate

type cls = W1 | W2 | W3

val cls_name : cls -> string

val deletions : Store.t -> cls -> count:int -> seed:int -> Xupdate.t list
(** delete operations removing existing c children; empty when the view
    has no candidate edges *)

val insertions :
  Synth.dataset ->
  Store.t ->
  cls ->
  count:int ->
  seed:int ->
  ?fresh:bool ->
  unit ->
  Xupdate.t list
(** insert operations adding a c subtree under selected sub parents;
    [fresh] (default) synthesizes brand-new keys (exercising Algorithm
    insert's template/SAT path), [not fresh] re-links existing deeper
    subtrees (exercising sharing; never an ancestor, so acyclic) *)

val relinks :
  Synth.dataset ->
  Store.t ->
  cls ->
  count:int ->
  seed:int ->
  (Xupdate.t * Xupdate.t) list
(** [count] pairs of a deletion of a sub → c edge in the view and the
    insertion that re-links the same c under the same sub, drawn with
    one seed before either is applied. Apply the deletion first: a
    re-link of an edge still in the view is a no-op. *)
