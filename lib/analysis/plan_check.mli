(** Static verification of physical plans: the P-series diagnostics.

    Four passes over {!Qlang.Plan.t}, none of which executes the plan.
    Each emits {!Diagnostic.t} values with stable [P]-prefixed codes,
    alongside the query-level [A]-series of {!Analyze}:

    {b Schema/arity typing} ({!typecheck}) — infers the output variable set
    of every node and rejects plans the interpreter would abort on:
    - [P001] (error) scan/join/identity of an unknown relation
    - [P002] (error) atom arity differs from the relation's arity
    - [P003] (error) node variable metadata differs from what its shape
      binds (including frozen [Cached] bindings that disagree)
    - [P004] (error) filter references a column its input never binds (the
      row lookup would raise)
    - [P005] (warning) projection keeps a column its input never binds
    - [P006] (error) malformed fixpoint: rule head not an IDB of its
      stratum, head arity mismatch, or undeclared answer predicate
    - [P007] (info) cartesian join: hash-join inputs share no variables
    - [P009] (error) scan keeps a variable its atom never binds, or
      index join keeps one neither its input nor its atom binds (the
      covering projection would raise at run time)
    - [P015] (error) anti-join whose right input binds a variable its left
      input does not (the row restriction would raise at run time)

    {b Rewrite-soundness certification} ({!certify_diags}, {!certify}) —
    structurally verifies that the planner's predicate pushdown and join
    reordering preserved the source query:
    - [P010] (error) atom multiset (relation, arity) not preserved
    - [P011] (error) built-in predicate count not preserved
    - [P012] (error) a free variable of the source (disjunct) is unbound
      in the compiled node
    - [P013] (error) complement-stratification violated: a complement's
      input or an anti-join's right input in a stratum's rule reads a
      same-or-higher-stratum IDB
    - [P014] (error) coverage mismatch: disjunct/rule/stratum counts differ
      from the source, a recursive rule lacks semi-naive delta variants,
      or the plan was compiled from a different query

    {b Budget & fault lint} ({!budget_lint}, {!fault_coverage}) — proves
    every node kind (and the fixpoint round loop) declares a
    {!Qlang.Plan.Budget_tick}, join loops declare a fault site, and the
    plan-reachable [PKG_FAULT] sites stay reachable:
    - [P020] (error) a node kind or loop declares no budget tick / no
      fault site on an unbounded construct
    - [P021] (error) a declared fault site is not in {!Robust.Fault.sites}
    - [P022] (error) a plan-reachable fault site is not exercised by any
      plan in the given corpus
    - [P023] (error) registry drift: {!Qlang.Plan.plan_fault_sites} is not
      a subset of {!Robust.Fault.sites}

    {b Effect analysis} ({!effects_diags}, via {!Effects}) — classifies
    shared-state accesses and the concurrency verdict:
    - [P030] (info) the effect summary ([ConcurrencySafe] /
      [RequiresExclusive])
    - [P031] (error) an unsynchronized shared write: the plan must not run
      concurrently *)

val typecheck :
  ?extra:(string * int) list ->
  db:Relational.Database.t ->
  Qlang.Plan.t ->
  Diagnostic.t list
(** Schema/arity typing.  Relations known to the plan are the database's
    plus [extra] (name, arity) pairs — e.g. the package relation [RQ] of a
    compatibility query — plus, inside a fixpoint, the IDBs of the current
    and lower strata (and their ["@delta"] views inside delta variants
    only).  A plan with no error-severity diagnostics evaluates without
    interpreter arity failures on any database with these relations (the
    QCheck property of [test_plan_check]). *)

val certify_diags : Qlang.Query.t -> Qlang.Plan.t -> Diagnostic.t list
(** Rewrite-soundness checks ([P010]–[P014]) of the plan against the query
    it claims to compile. *)

val certify : Qlang.Query.t -> Qlang.Plan.t -> Advisor.certificate
(** The printable certificate: {!Advisor.certify_plan}'s shape promise
    chained with {!certify_diags}.  [Certified] only when both hold. *)

val budget_lint : Qlang.Plan.t -> Diagnostic.t list
(** [P020]/[P021] over the node kinds present in the plan. *)

val fault_coverage : Qlang.Plan.t list -> Diagnostic.t list
(** [P022]/[P023]: every site of {!Qlang.Plan.plan_fault_sites} must be
    reachable from some plan in the corpus and registered in
    {!Robust.Fault.sites}. *)

val registry_sites : unit -> string list
(** {!Robust.Fault.sites}, re-exported so callers need not depend on
    [robust] directly. *)

val effects_diags : Qlang.Plan.t -> Diagnostic.t list
(** [P030]/[P031] from {!Effects.summarize}. *)

val check :
  ?extra:(string * int) list ->
  ?query:Qlang.Query.t ->
  db:Relational.Database.t ->
  Qlang.Plan.t ->
  Diagnostic.t list
(** All passes: typing, certification (when the source [query] is given),
    budget/fault lint and effects, sorted errors-first. *)

val ok : Diagnostic.t list -> bool
(** No error-severity diagnostics. *)
