(** The reference oracle's binding sets: sets of variable assignments
    ("binding relations"), kept apart from the library's [Qlang.Bindings]
    so that a defect in the plan engine's row arrays cannot show up on
    both sides of a differential test.

    The oracle works bottom-up, mapping every subformula to the set of
    assignments of its free variables that satisfy it (with quantifiers
    ranging over the active domain).  A value of type {!t} is such a set:
    a sorted array of variable names together with an ordered set of
    tuples, one column per variable.  Written for obviousness: every
    operator builds a [Set.Make] of tuples. *)

type t

val vars : t -> string array
(** The variables, in increasing order. *)

val make : string list -> Relational.Tuple.t list -> t
(** [make vars rows]: columns of [rows] correspond to [vars] positionally
    ([vars] need not be sorted; columns are reordered internally).  Raises
    [Invalid_argument] on duplicate variables or arity mismatch. *)

val tt : t
(** The nullary binding set containing the empty assignment ("true"). *)

val ff : t
(** The empty nullary binding set ("false"). *)

val is_satisfiable : t -> bool
(** Whether at least one assignment is present. *)

val cardinal : t -> int

val rows : t -> Relational.Tuple.t list
(** Rows in column order {!vars}, in increasing tuple order. *)

val assignments : t -> (string * Relational.Value.t) list list
(** Rows as association lists, for debugging and tests. *)

val join : t -> t -> t
(** Natural join on shared variables. *)

val extend : adom:Relational.Value.t list Lazy.t -> string list -> t -> t
(** Pads the binding set so that its variable set includes the given
    variables, missing variables ranging over the active domain.  [adom]
    is forced only when padding actually happens, so fully-bound plans
    never pay for active-domain construction. *)

val union : adom:Relational.Value.t list Lazy.t -> t -> t -> t
(** Set union after {!extend}ing both sides to the common variable set. *)

val complement : adom:Relational.Value.t list Lazy.t -> t -> t
(** [adom^vars] minus the rows: the semantics of negation under the
    active-domain interpretation. *)

val anti_join : t -> t -> t
(** [anti_join a b]: the rows of [a] whose restriction to the variables of
    [b] is not a row of [b] — [a ∧ ¬b] when [b]'s variables are among
    [a]'s, with no active domain involved.  Raises [Invalid_argument] when
    [b] binds a variable [a] does not. *)

val project : string list -> t -> t
(** Keeps only the given variables (others are projected out, i.e.
    existentially quantified).  Variables not present are ignored. *)

val filter : ((string -> Relational.Value.t) -> bool) -> t -> t
(** Keeps the rows on which the predicate holds; the predicate receives a
    lookup function for the row (raising [Not_found] on unknown variables). *)

val to_relation :
  adom:Relational.Value.t list Lazy.t ->
  Relational.Schema.t ->
  head:Qlang.Ast.term list ->
  t ->
  Relational.Relation.t
(** Builds the answer relation for a query head: each head position is
    either a variable of the binding set, a free variable not occurring in
    it (padded over the active domain), or a constant. *)
