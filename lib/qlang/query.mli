(** Unified queries: the [L_Q] of the paper.

    A query is a first-order formula-based query (covering SP, CQ, UCQ, ∃FO⁺
    and FO by syntactic classification), a Datalog program (DATALOGnr or
    DATALOG by the acyclicity of its dependency graph), the identity query
    over a named relation (used heavily in the paper's data-complexity lower
    bounds), or the constant empty query (the "absent" compatibility
    constraint of Section 2). *)

type t =
  | Fo of Ast.fo_query
  | Dl of Datalog.program
  | Identity of string
      (** the identity query on relation [R]: [Q(x̄) = R(x̄)] *)
  | Empty_query  (** returns ∅ on every input *)

type lang =
  | L_sp
  | L_cq
  | L_ucq
  | L_efo_plus
  | L_fo
  | L_datalog_nr
  | L_datalog

val lang_to_string : lang -> string

val pp_lang : Format.formatter -> lang -> unit

val all_langs : lang list
(** The six languages of the paper, in the order of Table 8.1 (SP excluded;
    it appears only in Corollary 6.2): CQ, UCQ, ∃FO⁺, DATALOGnr, FO,
    DATALOG. *)

val language : t -> lang
(** Smallest language containing the query.  [Identity] and [Empty_query]
    are [L_sp]. *)

val eval : ?dist:Dist.env -> Relational.Database.t -> t -> Relational.Relation.t
(** [Q(D)].  Every language evaluates through the physical-plan interpreter
    ({!Plan}); compiled plans are cached per (query, database identity), so
    repeated evaluation over the same database pays compilation once. *)

val plan : Relational.Database.t -> t -> Plan.t
(** The (cached) compiled plan {!eval} would run. *)

val empty_schema : Relational.Schema.t
(** The nullary schema of [Empty_query] answers. *)

val answer_schema : Relational.Database.t -> t -> Relational.Schema.t
(** Schema of [Q(D)]; needs the database only for [Identity]. *)

val arity : Relational.Database.t -> t -> int

val is_empty_query : t -> bool

val rels : t -> string list
(** Relations the query mentions (for Datalog: every head and body
    predicate, IDBs included), sorted — the dependency set per-relation
    invalidation keys on. *)

val adom_sensitive : Relational.Database.t -> t -> bool
(** {!Plan.adom_sensitive} of the (cached) compiled plan: whether the
    query's answer can change when the database's active domain gains or
    loses values outside the relations of {!rels}. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
