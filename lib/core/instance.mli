(** Package-recommendation instances: the tuple (Q, D, Qc, cost(), val(), C)
    of Section 2 of the paper, plus the package-size bound and the distance
    environment needed by relaxed queries.

    Q(D) is evaluated by the plan engine alone (an SP selection compiles
    to the single scan of Corollary 6.2), and a query constraint Qc is
    answered by one route, resolved once per constraint: its conflict
    sets, or a prepared delta with memoized verdicts ({!compat_route}). *)

type compat =
  | No_constraint
      (** the "empty query" — compatibility constraints absent *)
  | Compat_query of Qlang.Query.t
      (** a query Qc over the database extended with the package (exposed as
          the relation {!answer_rel}); the package is compatible iff
          [Qc(N, D) = ∅] *)
  | Compat_fn of string * (Package.t -> Relational.Database.t -> bool)
      (** a PTIME compatibility predicate (Corollary 6.3); [true] means
          compatible *)

type memo
(** Per-instance evaluation cache: Q(D), the compatibility route with its
    per-package verdicts, and the valid-package index.  Opaque; a fresh
    one is attached by every constructor, so [with_db] / [with_select]
    never observe stale results.  Record updates ([{ inst with value; cost }])
    share it: the route is tagged with the compatibility constraint and
    the index keyed on everything that decides validity, so sharing is
    safe. *)

type t = {
  db : Relational.Database.t;
  select : Qlang.Query.t;  (** the selection criteria Q *)
  compat : compat;  (** the compatibility constraints Qc *)
  cost : Rating.t;
  value : Rating.t;  (** the rating function val() *)
  budget : float;  (** the cost budget C *)
  size_bound : Size_bound.t;
  dist : Qlang.Dist.env;
      (** distance functions, consulted by [Dist] atoms in Q or Qc *)
  answer_rel : string;
      (** name under which the package is exposed to Qc (the paper's RQ) *)
  memo : memo;
}

val make :
  db:Relational.Database.t ->
  select:Qlang.Query.t ->
  ?compat:compat ->
  cost:Rating.t ->
  value:Rating.t ->
  budget:float ->
  ?size_bound:Size_bound.t ->
  ?dist:Qlang.Dist.env ->
  ?answer_rel:string ->
  unit ->
  t
(** Defaults: no compatibility constraint, linear size bound, empty distance
    environment, answer relation ["RQ"]. *)

val language : t -> Qlang.Query.lang
(** The language of the selection query (the paper assumes Q and Qc share a
    language; {!compat_language} gives Qc's). *)

val compat_language : t -> Qlang.Query.lang option
(** [None] when constraints are absent or are a PTIME function. *)

val has_compat : t -> bool

val candidates : t -> Relational.Relation.t
(** [Q(D)] — the items available for packaging, evaluated by the plan
    engine ({!Qlang.Engine.eval}) once per instance and memoized (the
    validity checks along every solver path ask for it per package); safe
    to call from several domains. *)

type route =
  | Sets of Conflicts.t
      (** a CQ/UCQ constraint: a package inside Q(D) is compatible iff it
          contains none of the conflict sets ({!Conflicts}) *)
  | Delta of Qlang.Engine.delta
      (** any other constraint: Qc prepared for delta re-evaluation over
          [D ⊕ one package], its verdicts memoized by {!memo_compat} *)

val compat_route : t -> route option
(** How {!Validity.compatible} answers a query constraint, resolved once
    per constraint on first use and kept on the memo ([None] when the
    instance has no query constraint).  The resolution ({!Conflicts.build},
    else {!Qlang.Engine.delta_prepare}) runs under the caller's budget; a
    fault or an exhausted budget leaves the route unresolved for the next
    call.  A resolved route is read without the lock. *)

val compat_delta : t -> Qlang.Engine.delta option
(** The prepared delta when {!compat_route} is [Delta]; [None] for a
    constraint the conflict sets answer (resolving them) and when the
    instance has no query constraint. *)

val memo_compat : t -> Package.t -> (unit -> bool) -> bool
(** [memo_compat inst pkg compute] returns the cached compatibility
    verdict for [pkg], running [compute] (outside the memo lock) on a
    miss.  Verdicts are kept with the resolved {!compat_route} of the
    instance's constraint (by the physical identity of its query); before
    the route is resolved nothing is stored.  Used by
    {!Validity.compatible} on the [Delta] route; the memo is bounded by
    {!compat_memo_cap}, so a cold miss beyond the cap simply recomputes
    (and bumps the [memo.compat_capped] counter). *)

val compat_memo_cap : int
(** Size bound of the per-package verdict memo (2¹⁶ entries), and of the
    valid-package index (in packages). *)

val valid_index : t -> max_size:int -> Valid_index.t option
(** The stored valid-package index, when it was computed for this
    instance's cost, val(), constraint (all by physical identity), budget
    and [max_size] (the package-size bound capped at |Q(D)|).  Counted by
    [memo.valid_hit] / [memo.valid_miss]. *)

val store_valid_index :
  t -> max_size:int -> count:int -> (unit -> Valid_index.t) -> Valid_index.t option
(** [store_valid_index inst ~max_size ~count build] stores [build ()]
    under this instance's key, replacing any index stored before, and
    returns it.  Callers store only the result of a walk that ran to
    completion.  Past {!compat_memo_cap} packages nothing is built or
    stored: [None], and [memo.valid_capped] is bumped. *)

val answer_schema : t -> Relational.Schema.t
(** Schema under which packages are exposed to Qc: the answer schema of Q
    renamed to {!answer_rel}. *)

val max_package_size : t -> int
(** The concrete size bound for this database. *)

val prewarm : t -> unit
(** Force the shared lazy state a request would otherwise build on first
    touch: the candidate memo (compiling and evaluating the selection
    plan), the {!compat_route} and the per-relation count tables backing
    the planner's statistics.  Idempotent and safe to call concurrently;
    the serving daemon calls it once per loaded instance so the first
    request is answered from warm state. *)

val with_db : t -> Relational.Database.t -> t
(** Same instance over an adjusted database (Section 8).  Flushes the memo
    wholesale; prefer {!update_db} (or {!insert_tuple}/{!delete_tuple})
    when the new database is the old one under a few tuple updates. *)

val with_select : t -> Qlang.Query.t -> t
(** Same instance with a (relaxed) selection query (Section 7). *)

val update_db : ?adom_preserved:bool -> t -> Relational.Database.t -> t
(** Same instance over an updated database, with {e per-relation} memo
    invalidation: the relations whose {!Relational.Database.revision}
    changed are diffed, and each memo entry survives iff its query mentions
    none of them and is either adom-insensitive ({!Qlang.Query.adom_sensitive})
    or covered by the caller's promise [~adom_preserved] (default [false])
    that the update did not change the database's active domain.  A
    [Delta] route survives when Qc does; a [Sets] route and the
    valid-package index survive exactly when both the candidates and Qc
    do.  A revision-identical database keeps the whole memo.
    Retention is counted by [memo.candidates_kept] / [memo.compat_kept] /
    [memo.valid_kept]. *)

val insert_tuple : t -> string -> Relational.Tuple.t -> t
(** {!update_db} after [Database.insert_tuple], deriving [~adom_preserved]
    automatically from the relations' count tables (a value counted
    somewhere is already in the domain; unknown counts conservatively
    report a domain change).  Raises [Not_found] if the relation is
    absent. *)

val delete_tuple : t -> string -> Relational.Tuple.t -> t
(** Dual of {!insert_tuple}; the domain counts as preserved when every
    deleted value also occurs in a relation other than the mutated one. *)
