(** Effect analysis over physical plans: which shared mutable state a plan
    touches, and whether it is safe to execute concurrently.

    Evaluating a plan looks pure — it maps a database to a relation — but
    the engine leans on shared mutable acceleration state: lazily-built
    relation caches (arrays, by-column indexes, column counts), the
    compiled-plan LRU cache and the per-instance compatibility memo.  Each access is classified on the
    lattice

    {v pure ⊑ reads-shared ⊑ writes-shared v}

    together with whether the underlying structure synchronizes its own
    mutation (every structure above does today: mutex-guarded lazy caches
    published immutably, mutex-guarded LRU and memo).  A plan whose shared writes are all synchronized is
    {!Concurrency_safe} — the precondition a future [recommend serve]
    daemon needs to evaluate cached plans from several domains at once.
    Any unsynchronized shared write marks the plan
    {!Requires_exclusive}. *)

type level = Pure | Reads_shared | Writes_shared

val level_leq : level -> level -> bool
(** The effect lattice order: [Pure ⊑ Reads_shared ⊑ Writes_shared]. *)

val level_join : level -> level -> level

val level_to_string : level -> string

(** The shared mutable structures of the engine. *)
type resource =
  | Relation_caches
      (** per-relation lazy arrays / by-column indexes / column counts *)
  | Plan_cache  (** the compiled-plan LRU *)
  | Compat_memo  (** the per-instance compatibility memo *)

val resource_to_string : resource -> string

val resource_synchronized : resource -> bool
(** Whether the engine's implementation of the resource guards its own
    mutation (all three do: see [Relational.Relation]'s mutex-guarded lazy
    caches, [Qlang.Plan]'s cache lock and [Core.Instance]'s memo lock). *)

type access = {
  resource : resource;
  level : level;
  synchronized : bool;
      (** normally [resource_synchronized resource]; tests may override to
          model an unsynchronized structure *)
}

type verdict =
  | Concurrency_safe
      (** every shared access hits a structure that synchronizes itself *)
  | Requires_exclusive of string list
      (** unsynchronized shared writes on the named resources: the plan
          must not run concurrently with other users of them *)

val verdict_to_string : verdict -> string

type summary = {
  accesses : access list;  (** deduplicated, one entry per resource *)
  verdict : verdict;
}

val op_accesses : Qlang.Plan.op -> access list
(** Shared-state accesses of evaluating one node of this kind.  Atom
    leaves and [Index_join] (narrowed or not) build (write) relation
    caches; everything else computes over already-materialized bindings.
    Total over [op]. *)

val compile_accesses : access list
(** Accesses of fetching the plan through the compiled-plan cache
    ([compile_fo_cached] / [compile_datalog_cached]). *)

val oracle_accesses : access list
(** Accesses of the compatibility-oracle path (the memo around
    [delta_is_empty]); included when the plan backs a compatibility
    query. *)

val merge : access list -> access list
(** Deduplicate by resource, joining levels; an access is unsynchronized if
    any merged occurrence was. *)

val plan_accesses : Qlang.Plan.t -> access list
(** Every node's accesses, merged, plus {!compile_accesses} (all evaluation
    entry points reach plans through the cache). *)

val verdict : access list -> verdict

val summarize : Qlang.Plan.t -> summary

val pp_summary : Format.formatter -> summary -> unit
