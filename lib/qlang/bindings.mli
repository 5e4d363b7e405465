(** Sets of variable assignments ("binding relations"), the values the
    plan interpreter ({!Plan}) passes between operators.

    A value of type {!t} is a sorted array of variable names together with
    a row array: one tuple per assignment, one column per variable, and
    never the same row twice.  Rows come in first-derivation order — the
    order in which the operator that built the set met them, which is
    fixed by its inputs' order, never by hash-table iteration — so every
    result is deterministic, but no operator promises sorted rows: the
    answer relation built from {!head_rows} sorts them.

    Duplicate rows can only arise where columns are dropped or two sets
    meet, so only {!make}, {!project} and {!union} deduplicate, with a
    hash set of rows ({!Rowset}).  {!join}, {!filter}, {!anti_join},
    {!extend} and {!complement} produce distinct rows from distinct inputs
    without checking; for {!extend} and {!complement} that needs an
    active domain listed without repeats, which is their precondition. *)

type t

val vars : t -> string array
(** The variables, in increasing order. *)

val make : string list -> Relational.Tuple.t list -> t
(** [make vars rows]: columns of [rows] correspond to [vars] positionally
    ([vars] need not be sorted; columns are reordered internally).
    Repeated rows are kept once, at their first occurrence.  Raises
    [Invalid_argument] on duplicate variables or arity mismatch. *)

val of_distinct : string list -> Relational.Tuple.t array -> t
(** [of_distinct vars rows] adopts [rows] as they are, without copying
    and without deduplicating: the caller guarantees that no row occurs
    twice and that every row lists its values in the order of [vars].
    The rows must not be mutated afterwards.  Raises [Invalid_argument]
    when [vars] is not strictly increasing. *)

val tt : t
(** The nullary binding set containing the empty assignment ("true"). *)

val ff : t
(** The empty nullary binding set ("false"). *)

val is_satisfiable : t -> bool
(** Whether at least one assignment is present. *)

val cardinal : t -> int
(** The number of rows (all distinct). *)

val rows : t -> Relational.Tuple.t list
(** Rows in column order {!vars}, in first-derivation order. *)

val iter : (Relational.Tuple.t -> unit) -> t -> unit
(** [iter f b] applies [f] to the rows in the order of {!rows}. *)

val assignments : t -> (string * Relational.Value.t) list list
(** Rows as association lists, for debugging and tests. *)

val join : t -> t -> t
(** Natural join on shared variables. *)

val extend : adom:Relational.Value.t list Lazy.t -> string list -> t -> t
(** Pads the binding set so that its variable set includes the given
    variables, missing variables ranging over the active domain.  [adom]
    is forced only when padding actually happens, so fully-bound plans
    never pay for active-domain construction.  [adom] must not list a
    value twice. *)

val union : adom:Relational.Value.t list Lazy.t -> t -> t -> t
(** Set union after {!extend}ing both sides to the common variable set:
    the left side's rows, then the right side's rows the left lacks. *)

val complement : adom:Relational.Value.t list Lazy.t -> t -> t
(** [adom^vars] minus the rows: the semantics of negation under the
    active-domain interpretation.  [adom] must not list a value twice. *)

val anti_join : t -> t -> t
(** [anti_join a b]: the rows of [a] whose restriction to the variables of
    [b] is not a row of [b] — [a ∧ ¬b] when [b]'s variables are among
    [a]'s, with no active domain involved.  Raises [Invalid_argument] when
    [b] binds a variable [a] does not. *)

val project : string list -> t -> t
(** Keeps only the given variables (others are projected out, i.e.
    existentially quantified).  Variables not present are ignored. *)

val filter : (Relational.Tuple.t -> bool) -> t -> t
(** Keeps the rows on which the predicate holds; it receives each row with
    its values in the order of {!vars}. *)

val head_rows :
  adom:Relational.Value.t list Lazy.t ->
  head:Ast.term list ->
  t ->
  Relational.Tuple.t list
(** The tuples of a query or rule head, one per row, in row order: each
    head position is either a variable of the binding set, a free
    variable not occurring in it (padded over the active domain), or a
    constant.  Two rows can give the same tuple when the head drops a
    variable, so the list may repeat tuples. *)

val head_tuples :
  head:Ast.term list ->
  string array ->
  Relational.Tuple.t list ->
  Relational.Tuple.t list
(** [head_tuples ~head vars rows]: the head tuple of each row, in row
    order, for rows whose columns are named by [vars] — which need not be
    a binding set: the rows may repeat, and so may the tuples.  Every head
    variable must be among [vars]; raises [Invalid_argument] otherwise. *)

(** {1 Row hash sets} *)

module Rowset : sig
  type t
  (** A mutable set of tuples, hashed with {!Relational.Tuple.hash}. *)

  val create : int -> t
  (** An empty set sized for about the given number of rows. *)

  val add : t -> Relational.Tuple.t -> bool
  (** Adds the row; [true] when it was absent. *)

  val mem : t -> Relational.Tuple.t -> bool
end
