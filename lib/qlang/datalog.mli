(** Datalog programs: DATALOGnr and DATALOG of Section 2 of the paper.

    Programs are sets of positive rules [p(x̄) ← p1(x̄1), ..., pn(x̄n)] whose
    body literals are relation atoms (EDB or IDB) or built-in predicates.
    A program whose dependency graph is acyclic is nonrecursive (DATALOGnr);
    otherwise it is recursive (DATALOG), evaluated as an inflationary
    fixpoint — which for positive programs coincides with the least
    fixpoint.  This module holds the syntax, the well-formedness check and
    the stratification; programs evaluate as semi-naive fixpoint plans
    ({!Plan.compile_datalog}). *)

type literal =
  | Rel of Ast.atom  (** EDB or IDB atom *)
  | Neg of Ast.atom
      (** negated atom (stratified negation); must be over an EDB relation
          or an IDB of a strictly lower stratum *)
  | Builtin of Ast.cmp * Ast.term * Ast.term

type rule = {
  head : Ast.atom;
  body : literal list;
}

type program = {
  rules : rule list;
  answer : string;  (** the distinguished answer (goal) predicate *)
}

val rule : Ast.atom -> literal list -> rule

val idb_predicates : program -> string list
(** Names appearing as rule heads, sorted. *)

val predicate_arity : program -> string -> int option
(** Arity of an IDB predicate as determined by its first occurrence. *)

val check : Relational.Database.t -> program -> (unit, string) result
(** Well-formedness: consistent arities for each IDB predicate; no IDB name
    collides with an EDB relation of the database; every rule is safe (each
    head variable and each built-in or negated-literal variable occurs in a
    positive relational body literal); the answer predicate is an IDB
    predicate; the program is stratifiable. *)

val dependency_graph : program -> (string * string) list
(** Edges [(p', p)] whenever predicate [p'] occurs in the body of a rule
    with head [p] (the paper's definition, after Chaudhuri–Vardi).
    Negated occurrences contribute edges too. *)

val signed_dependency_graph : program -> (string * string * bool) list
(** Like {!dependency_graph} with a negation flag: [(p', p, true)] when the
    occurrence of [p'] is under [not]. *)

val stratify : program -> ((string * int) list, string) result
(** The least stratification (Apt–Blair–Walker): positive dependencies stay
    in the same stratum or go up, negative dependencies go strictly up.
    [Error] with a human-readable message when a negative edge lies on a
    dependency cycle (the program is not stratifiable). *)

val strata_count : program -> int option
(** Number of strata of the least stratification; [None] when the program
    is not stratifiable.  [Some 1] for negation-free programs. *)

val refined_strata : program -> ((string * int) list, string) result
(** {!stratify} refined to strongly-connected components of the IDB
    dependency graph, in topological order: each stratum is one recursive
    component (or a single non-recursive predicate), dependencies —
    positive or negative — live at strictly lower strata, and mutual
    recursion shares a stratum.  Computes the same least fixpoint as the
    ABW strata, but keeps each semi-naive iteration to one component and
    gives the differential evaluator components it can freeze
    independently.  This is the stratification the plan compiler and the
    static plan verifier agree on. *)

val is_nonrecursive : program -> bool
(** Whether the dependency graph is acyclic, i.e. the program is in
    DATALOGnr. *)

val answer_schema : program -> Relational.Schema.t
(** Schema of the answer relation: attributes [a0, ..., a{n-1}]. *)

val idb_schema : string -> int -> Relational.Schema.t
(** [idb_schema name arity]: the schema given to IDB relations (attributes
    [a0, ..., a{n-1}]); shared with the plan interpreter's fixpoint. *)

val program_constants : program -> Relational.Value.t list
(** Constants occurring anywhere in the program (heads, bodies, built-ins);
    they extend the active domain of evaluation, like query constants do
    for FO. *)
