(** The query engine consumed by the core solvers.

    A thin façade over {!Query} and {!Plan}: evaluation always goes through
    the physical-plan interpreter with per-(query, database) plan caching,
    and the compatibility oracle's hot loop — "is [Q(D ⊕ N)] empty?" for
    thousands of candidate packages [N] over one fixed base [D] — is served
    by delta re-evaluation over a prepared plan whose base-only subtrees
    are evaluated once and frozen. *)

val eval :
  ?dist:Dist.env -> Relational.Database.t -> Query.t -> Relational.Relation.t
(** [Q(D)] through the plan interpreter ({!Query.eval}), counted in the
    [engine.evals] counter.  Answers equal the reference semantics, the
    test oracle the differential properties of [test/test_plan.ml]
    compare against. *)

val plan : Relational.Database.t -> Query.t -> Plan.t

val explain : ?dist:Dist.env -> Relational.Database.t -> Query.t -> string
(** Runs the (cached) plan and renders it with estimated vs actual row
    counts; backs the [--explain] CLI flag. *)

(** {1 Delta re-evaluation} *)

type delta
(** A compatibility query prepared for repeated evaluation over
    [D ⊕ one package]. *)

val delta_prepare :
  ?dist:Dist.env ->
  Relational.Database.t ->
  rel:string ->
  schema:Relational.Schema.t ->
  Query.t ->
  delta
(** [delta_prepare db ~rel ~schema q]: compile [q] against [db] extended
    with an empty relation [rel] (of the given schema) and freeze every
    subtree that depends neither on [rel] nor on the active domain. *)

val delta_eval : delta -> Relational.Relation.t -> Relational.Relation.t
(** [delta_eval d rq] equals [Query.eval (Database.add rq db) q]. *)

val delta_is_empty : delta -> Relational.Relation.t -> bool
(** [Relation.is_empty (delta_eval d rq)], short-circuiting across UCQ
    disjuncts. *)

val delta_cached_nodes : delta -> int
(** How many subtrees the prepare step froze. *)
