(** Physical query plans: one executable IR for all six languages.

    A plan is compiled once from a query and interpreted against a database
    (plus an optional overlay of in-flight relations — IDB fixpoint state,
    or the candidate package [RQ] of a compatibility check).  The node
    algebra works over {!Bindings} (named-variable binding relations).
    This is the library's one evaluator; the reference semantics it is
    tested against lives with the tests.

    The (U)CQ fragment is planned from {!Relational.Stats} selectivity
    estimates: join ordering by estimated cardinality, independent join
    components compiled separately (so a delta rewrite can cache them
    wholesale), and built-in predicates pushed down to the earliest node
    that binds their variables.  Beyond the UCQ fragment the compiler
    lowers structurally, [∀] as [¬∃¬].  Inside a conjunction, a comparison
    (or a disjunction of comparisons) over variables the positive
    conjuncts bind becomes a filter and a negation over them an
    {!Anti_join}; only an unguarded negation or comparison ranges over the
    active domain (a complement or a built-in leaf), so a safe-range query
    never builds the domain.  Datalog programs become a {!Fixpoint} plan
    whose strata carry semi-naive rule-body plans; round 0 of a stratum
    skips the rules that read the stratum's own (still empty) IDBs.  A
    non-recursive stratum fires its rules once; a recursive one tests each
    round's derived rows against a row hash set per IDB and builds an
    IDB's relation only for the delta variants that read it whole, and at
    the end.

    Every atom leaf is one {!Scan} over the row store: a constant position
    reads through the relation's by-column index, which writes maintain.
    Joins become {!Index_join}, an index nested-loop probe into the same
    maintained index.  A covering rewrite narrows scans and index joins —
    of a query and of every Datalog rule body — to the variables consumed
    above, so a join never materializes a column its consumers drop.  A filter directly over a scan is tested on each
    stored row before the row is materialized.

    The interpreter carries the existing observability conventions: it
    bumps [plan.*] {!Observe} counters, ticks {!Robust.Budget} in its
    loops, and exposes the {!Robust.Fault} sites ["plan.join"] and
    ["plan.round"]. *)

(** {1 The IR}

    The node algebra is exposed concretely so the static verifier
    ({!Analysis.Plan_check}) can type plans, certify rewrites and classify
    effects without executing them.  Nodes should be built through the
    compilers (or {!raw_node} for deliberately ill-formed fixtures): the
    [nvars]/[est]/[dst] metadata is derived, and the interpreter trusts
    [nvars]. *)

type cond =
  | Cond_cmp of Ast.cmp * Ast.term * Ast.term
  | Cond_dist of string * Ast.term * Ast.term * float
  | Cond_or of cond * cond  (** holds when either side holds *)

type op =
  | Tt
  | Ff
  | Scan of Ast.atom * string list
      (** match the atom pattern against its relation, emitting the listed
          variables: all of the atom's, unless the covering rewrite
          narrowed them to the ones consumed above *)
  | Index_join of node * Ast.atom * string list
      (** index nested-loop join: each child row probes the atom
          relation's cached by-column index, emitting the listed
          variables: all of the child's and the atom's, unless the
          covering rewrite narrowed them to the ones consumed above *)
  | Hash_join of node * node
  | Anti_join of node * node
      (** the rows of the left input whose restriction to the right
          input's variables is absent from the right input: [l ∧ ¬r] for a
          negation guarded by [l], with no active domain involved *)
  | Filter of cond * node
  | Builtin of cond  (** active-domain built-in leaf *)
  | Extend of string list * node  (** pad missing variables over adom *)
  | Project of string list * node  (** keep the listed variables *)
  | Union of node * node
  | Complement of node
  | Cached of Bindings.t * node
      (** base evaluation frozen by the delta rewrite; the node is kept for
          display only *)

and node = {
  id : int;
  op : op;
  nvars : string list;  (** variables of the result, sorted *)
  est : float;  (** estimated rows; [nan] = unknown *)
  dst : (string * float) list;  (** per-variable distinct-count estimates *)
}

type disjunct = {
  d_node : node;
  d_consts : Relational.Value.t list;
      (** the query's constants: the disjunct's active domain is the
          database's plus these ([adom(Q, D)], the same for every
          disjunct) *)
}

type fo_plan = {
  fp_query : Ast.fo_query;
  fp_schema : Relational.Schema.t;
  fp_head : Ast.term list;
  fp_fragment : Fragment.t;
  fp_disjuncts : disjunct list;
}

type rule_plan = {
  rp_head : Ast.atom;
  rp_full : node;
  rp_deltas : node list;
      (** semi-naive variants: one per same-stratum IDB body occurrence,
          that occurrence reading the ["@delta"] relation *)
}

type stratum_plan = {
  st_idbs : (string * int) list;  (** IDB name, arity *)
  st_rules : rule_plan list;
}

type dl_plan = {
  dp_program : Datalog.program;
  dp_strata : stratum_plan list;
  dp_consts : Relational.Value.t list;
  dp_answer : string;
}

type t =
  | Answer of fo_plan
  | Fixpoint of dl_plan
  | Identity_plan of string
  | Empty_plan of Relational.Schema.t
(** A compiled plan. *)

val children : node -> node list

val atom_vars_sorted : Ast.atom -> string list

val join_vars : node -> Ast.atom -> string list
(** The variables an {!Index_join} of the node against the atom binds,
    sorted: what it emits unless narrowed. *)

val cond_vars : cond -> string list
(** Variables of a condition, sorted, without duplicates. *)

val op_vars : op -> string list
(** The variable set a well-formed node of this shape must declare — the
    mirror of what the compiler's smart constructor computes.  A node with
    [nvars <> op_vars op] carries corrupt metadata (the interpreter trusts
    [nvars] for join layouts and projections). *)

val raw_node : op -> string list -> node
(** [raw_node op nvars]: a node with the {e declared} variable list taken
    verbatim and no cardinality estimates.  For building hand-written (and
    deliberately ill-formed) plans; the compilers never use it. *)

val mentions_rel : string -> node -> bool
(** Whether any atom leaf or join under the node (not under [Cached]) reads
    the named relation. *)

val uses_adom : node -> bool
(** Whether the node's value depends on the active domain (complements,
    variable built-ins, padding extends): such nodes change when the
    database gains values even if no relation they read changes. *)

val rels : t -> string list
(** Relation names the plan reads at execution time, sorted and
    deduplicated.  Fixpoint plans include their IDB predicates and
    ["@delta"] views; these never collide with database relations
    ({!Datalog.check}), so they are harmless extras for the caller's
    change tracking.  [Cached] leaves report the relations of the subtree
    they snapshotted. *)

val adom_sensitive : t -> bool
(** Whether any part of the plan {!uses_adom} (or pads head variables from
    it): if [false], the plan's answer is unchanged by updates that only
    touch relations outside {!rels} — the invalidation rule per-instance
    memos rely on. *)

val node_label : Format.formatter -> node -> unit
(** One-line operator label, as in the plan tree rendering. *)

val pp_cond : Format.formatter -> cond -> unit

(** {1 Robustness metadata}

    The interpreter's cooperative-budget and fault-injection obligations,
    declared per node kind so the static lint can prove every unbounded
    construct ticks the budget and every plan-reachable [PKG_FAULT] site
    stays reachable — without executing a plan. *)

type guard =
  | Budget_tick  (** the node's evaluation calls [Robust.Budget.check] *)
  | Fault_site of string  (** ... and probes the named [Robust.Fault] site *)

val op_guards : op -> guard list
(** Guards the interpreter executes for a node of this kind.  Total over
    [op]: a new operator must declare its guards to compile. *)

val fixpoint_guards : guard list
(** Guards executed once per semi-naive fixpoint round. *)

val plan_fault_sites : string list
(** Every fault site reachable from the plan interpreter (a subset of
    {!Robust.Fault.sites}). *)

(** {1 Compilation} *)

val ucq_disjuncts : Ast.formula -> Ast.formula list
(** The disjuncts of a UCQ body, top-level [∃] pushed through [∨] and
    [False] disjuncts dropped; each is a conjunctive query.  Raises
    [Invalid_argument] outside the UCQ fragment. *)

val compile_fo : Relational.Database.t -> Ast.fo_query -> t
(** Queries in the UCQ fragment compile to one join chain per disjunct
    (a leaf scan extended by index joins);
    larger fragments lower structurally.  The database is consulted only
    for statistics (cardinalities, distinct counts) — compiling against a
    database where a mentioned relation is absent is allowed and simply
    plans without estimates for it. *)

val compile_datalog : Relational.Database.t -> Datalog.program -> t
(** Checks the program ({!Datalog.check}; an unsafe, ill-formed or
    unstratifiable program raises [Failure] with a ["Plan: "] message),
    stratifies it, and compiles every rule body — plus its
    semi-naive delta variants (one per same-stratum IDB body occurrence) —
    to plan nodes under a {!Fixpoint} driver. *)

val identity : string -> t
(** The identity query on a named relation. *)

val empty : Relational.Schema.t -> t
(** The constant empty query. *)

(** {1 Execution} *)

val run : ?dist:Dist.env -> Relational.Database.t -> t -> Relational.Relation.t
(** Evaluate the plan.  Agrees with the reference semantics (the test
    oracle) for the source query on every database (the differential
    property tested in [test/test_plan.ml]). *)

(** {1 Plan cache}

    Compiled plans keyed by (query, revision fingerprint): an entry
    records the {!Relational.Database.revision} of every relation the
    query mentions, and matches any database where those revisions — hence
    those tuple sets, hence the statistics that drove the plan's
    access-path and join-order choices — are unchanged.  Updates to
    unrelated relations keep entries live, and a net no-op update stream
    (add then remove of one tuple) returns to the original fingerprint and
    hits again.  The only staleness admitted is the global
    active-domain-size estimate, which feeds cost estimates, never
    answers.  The cache is a small shared LRU guarded by a mutex; entries
    hold no databases (a fingerprint is just revision numbers), so caching
    never pins tuple storage. *)

val compile_fo_cached : Relational.Database.t -> Ast.fo_query -> t
val compile_datalog_cached : Relational.Database.t -> Datalog.program -> t

(** {1 Delta re-evaluation}

    The compatibility oracle evaluates [Qc(D ⊕ N)] for thousands of
    packages [N] over one fixed base [D].  [delta_prepare] compiles the
    query against [D] extended with an empty delta relation [rel], then
    rewrites the plan: every maximal subtree that neither mentions [rel]
    nor depends on the active domain (which grows with the package's
    values) is evaluated once against the base and frozen as a cached
    leaf.  [delta_eval]/[delta_is_empty] then evaluate single packages as
    an overlay, re-running only the delta-dependent spine. *)

type delta

val delta_prepare :
  ?dist:Dist.env ->
  Relational.Database.t ->
  rel:string ->
  schema:Relational.Schema.t ->
  Ast.fo_query ->
  delta

val delta_prepare_datalog :
  ?dist:Dist.env ->
  Relational.Database.t ->
  rel:string ->
  schema:Relational.Schema.t ->
  Datalog.program ->
  delta
(** Differential fixpoint preparation: the program's strata are split into
    {e frozen} — provably unaffected by the delta relation (no rule reads
    it, an IDB downstream of it, or the active domain) — and {e live}.
    Frozen strata are evaluated once against the base and their IDBs
    shipped through the evaluation overlay; only the live strata iterate
    per package.  Freezing need not be a prefix of the stratification, and
    when the answer predicate itself freezes, [delta_eval] returns its
    pre-evaluated relation without running any fixpoint. *)

val delta_eval : delta -> Relational.Relation.t -> Relational.Relation.t
(** [delta_eval d rq]: the answer over the base database with the delta
    relation bound to [rq].  Equals the from-scratch evaluation over
    [Database.add rq base]. *)

val delta_is_empty : delta -> Relational.Relation.t -> bool
(** [Relation.is_empty (delta_eval d rq)], short-circuiting across UCQ
    disjuncts. *)

val delta_cached_nodes : delta -> int
(** How many units the preparation froze: [Cached] subtrees for FO plans,
    pre-evaluated IDB predicates for Datalog plans (0 when nothing was
    cacheable). *)

(** {1 Inspection} *)

type shape = {
  scans : int;  (** atom leaf scans *)
  index_joins : int;  (** index nested-loop join nodes *)
  hash_joins : int;
  anti_joins : int;  (** guarded negations *)
  filters : int;
  unions : int;
  complements : int;
  extends : int;
  builtins : int;  (** active-domain built-in leaves *)
  cached : int;  (** frozen delta leaves *)
  disjuncts : int;  (** UCQ branches (0 for fixpoint/identity plans) *)
  strata : int;  (** fixpoint strata (0 for formula plans) *)
}

val shape : t -> shape
(** Node census, used by the analysis advisor to certify plan shapes
    (e.g. an SP query must compile to a single scan and nothing else). *)

val pp : Format.formatter -> t -> unit
(** The plan tree with estimated row counts (no execution). *)

val explain : ?dist:Dist.env -> Relational.Database.t -> t -> string
(** Run the plan against the database and render the tree with estimated
    vs actual row counts per node ([est]/[actual] columns; a node executed
    several times — e.g. a rule body across fixpoint rounds — reports its
    last execution).  A leaf scan under a fused filter reports the rows
    its atom matched, the filter the rows that passed.  Estimates are the
    textbook uniformity heuristics of {!Relational.Stats}; they are
    diagnostics, never semantics. *)
