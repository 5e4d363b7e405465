(** The reference semantics: the one differential-test oracle for the plan
    engine ({!Qlang.Query.eval}).

    A naive bottom-up evaluator under active-domain semantics, written for
    obviousness rather than speed.  FO formulas (SP, CQ, UCQ, ∃FO⁺, FO and
    the [Dist] atoms of query relaxation) are evaluated by structural
    recursion over the oracle's own binding sets ({!Oracle_bindings}),
    with quantifiers and complements ranging over [adom(Q, D)]: the
    constants of the database and of the formula.  Datalog programs are evaluated stratum by stratum as a naive
    least fixpoint, re-firing every rule of the stratum through the FO
    evaluator each round until no IDB grows.  It shares no code with
    {!Qlang.Plan} or {!Qlang.Bindings}: no plan compilation, no plan cache,
    no row arrays. *)

val active_domain :
  Relational.Database.t -> Qlang.Ast.formula -> Relational.Value.t list
(** [adom(Q, D)]: constants of the database and of the formula. *)

val eval_formula :
  ?dist:Qlang.Dist.env ->
  Relational.Database.t ->
  Qlang.Ast.formula ->
  Oracle_bindings.t
(** Satisfying assignments of the free variables.  Raises [Failure] when the
    formula mentions a relation absent from the database or a distance
    function absent from [dist]. *)

val holds :
  ?dist:Qlang.Dist.env -> Relational.Database.t -> Qlang.Ast.formula -> bool
(** Truth of a formula (its free variables are implicitly existentially
    quantified — for sentences this is ordinary truth). *)

val eval_query :
  ?dist:Qlang.Dist.env ->
  Relational.Database.t ->
  Qlang.Ast.fo_query ->
  Relational.Relation.t
(** The answer relation [Q(D)] under {!Qlang.Ast.answer_schema}. *)

val eval_program :
  Relational.Database.t -> Qlang.Datalog.program -> Relational.Relation.t
(** The answer predicate's relation under the stratified least-fixpoint
    semantics.  Raises [Failure] if {!Qlang.Datalog.check} fails (including
    unstratifiable programs). *)

val eval :
  ?dist:Qlang.Dist.env ->
  Relational.Database.t ->
  Qlang.Query.t ->
  Relational.Relation.t
(** [Q(D)] for every query of the unified language: FO queries through
    {!eval_query}, Datalog programs through {!eval_program}. *)
