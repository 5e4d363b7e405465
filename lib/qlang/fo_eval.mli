(** Bottom-up first-order query evaluation under active-domain semantics:
    the reference evaluator for FO queries.

    Handles every non-Datalog language of the paper (SP, CQ, UCQ, ∃FO⁺, FO),
    including the [Dist] atoms produced by query relaxation.  Quantifiers
    range over the active domain of the database extended with the constants
    of the formula ([adom(Q, D)] in the paper).  It is written for
    obviousness rather than speed: production evaluation goes through
    {!Plan}, and this module is the oracle the plan interpreter is tested
    against (through {!Query.eval_legacy}), as well as the body evaluator of
    the naive {!Datalog.eval}. *)

val active_domain :
  Relational.Database.t -> Ast.formula -> Relational.Value.t list
(** [adom(Q, D)]: constants of the database and of the formula. *)

val eval :
  ?dist:Dist.env -> Relational.Database.t -> Ast.formula -> Bindings.t
(** Satisfying assignments of the free variables.  Raises [Failure] when the
    formula mentions a relation absent from the database or a distance
    function absent from [dist]. *)

val holds : ?dist:Dist.env -> Relational.Database.t -> Ast.formula -> bool
(** Truth of a formula (its free variables are implicitly existentially
    quantified — for sentences this is ordinary truth). *)

val eval_query :
  ?dist:Dist.env -> Relational.Database.t -> Ast.fo_query -> Relational.Relation.t
(** The answer relation [Q(D)], with schema named after the query and
    attributes named after the head variables. *)

val answer_schema : Ast.fo_query -> Relational.Schema.t
(** Schema of {!eval_query}'s result: the query name with one attribute per
    head variable. *)
