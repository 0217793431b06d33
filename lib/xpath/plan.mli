(** Compiled XPath plans.

    A plan is the flat, execution-ready form of a path: the deep normal
    form of Section 3.2 (η1/…/ηn with every embedded filter path
    normalized too) lowered into arrays of step/filter opcodes, with
    element-type labels interned to small integer ids and every path
    filter collected into one table in sub-expression (inner-before-
    outer) order — the order the bottom-up dynamic program consumes.

    Compilation is O(|p|) and happens once per evaluation. *)

type target =
  | T_exists  (** the filter path must reach some node *)
  | T_text_eq of string  (** …whose XPath string value equals the literal *)

type filter =
  | F_label of int  (** label() = A, as an interned label id *)
  | F_and of filter * filter
  | F_or of filter * filter
  | F_not of filter
  | F_path of int  (** index into the plan's path-filter table *)

type step =
  | S_filter of filter  (** ε[q] — does not move *)
  | S_label of int  (** child step to an interned label *)
  | S_wild  (** child step to any element *)
  | S_desc  (** descendant-or-self *)

type pfilter = { steps : step array; target : target }

type t = {
  outer : step array;
  pfilters : pfilter array;  (** sub-expression order: inner before outer *)
  labels : string array;  (** interned label names; ids index this array *)
}

val compile : Ast.path -> t
(** normalize and lower [p]; O(|p|) *)
