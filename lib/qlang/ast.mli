(** Abstract syntax of first-order queries.

    One formula type covers all the non-Datalog languages of Section 2 of the
    paper — CQ, UCQ, ∃FO⁺ and FO (plus the SP fragment of Corollary 6.2);
    {!Fragment.classify} determines which fragment a given formula lies in.
    The extra {!constructor-Dist} constructor is the distance predicate
    [dist_f(t1, t2) <= d] introduced by query relaxation (Section 7); it is
    treated as a positive built-in atom. *)

type term =
  | Var of string
  | Const of Relational.Value.t

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type atom = {
  rel : string;  (** relation (or IDB predicate) name *)
  args : term list;
}

type formula =
  | True
  | False
  | Atom of atom
  | Cmp of cmp * term * term
  | Dist of string * term * term * float
      (** [Dist (f, t1, t2, d)] holds iff [f(t1, t2) <= d] for the named
          distance function [f] (Section 7). *)
  | And of formula * formula
  | Or of formula * formula
  | Not of formula
  | Exists of string list * formula
  | Forall of string list * formula

type fo_query = {
  name : string;  (** answer-relation name, e.g. ["Q"] *)
  head : string list;  (** answer variables, in output order *)
  body : formula;
}

val answer_schema : fo_query -> Relational.Schema.t
(** Schema of the answer relation [Q(D)]: the query name with one attribute
    per head variable (a repeated head variable [v] gets [v#1], [v#2], ...
    on its later occurrences). *)

val eval_cmp : cmp -> Relational.Value.t -> Relational.Value.t -> bool
(** Built-in predicate semantics, using the total order on values. *)

val negate_cmp : cmp -> cmp
(** [negate_cmp op] is the complement predicate ([Eq] ↔ [Neq], [Lt] ↔ [Ge],
    [Le] ↔ [Gt]). *)

val term_vars : term -> string list

val free_vars : formula -> string list
(** Free variables, sorted, without duplicates. *)

val all_constants : formula -> Relational.Value.t list
(** Constants occurring in the formula (in terms and [Dist] bounds excluded),
    sorted, without duplicates. *)

val relations_used : formula -> string list
(** Names of relations mentioned in atoms, sorted, without duplicates. *)

val conjuncts : formula -> formula list
(** Flattens nested [And]; [True] yields the empty list. *)

val conj : formula list -> formula
(** Right-nested conjunction; [conj [] = True]. *)

val disjuncts : formula -> formula list
(** Flattens nested [Or]; [False] yields the empty list. *)

val disj : formula list -> formula
(** Right-nested disjunction; [disj [] = False]. *)

val exists : string list -> formula -> formula
(** [Exists] that collapses an empty binder list. *)

val forall : string list -> formula -> formula
(** [Forall] that collapses an empty binder list. *)

val subst : (string * term) list -> formula -> formula
(** Capture-avoiding is not needed here: bound variables shadow the
    substitution (bindings for them are dropped inside their scope). *)

val rename_rels : (string * string) list -> formula -> formula
(** Renames relation names in atoms according to the association list. *)

val freshen : formula -> formula
(** Renames every quantified variable to a globally fresh name (of the form
    ["_vN"]), so that no two quantifiers bind the same name and no bound name
    collides with a free one.  Flattening transformations (e.g. pulling ∃ out
    of ∧ in the plan compiler's CQ splitter) are only sound after freshening. *)

val equal_formula : formula -> formula -> bool

val compare_formula : formula -> formula -> int
