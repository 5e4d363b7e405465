(** The EXISTPACK≥ oracle (Theorem 5.1) and package enumeration.

    The paper's upper-bound algorithms are oracle machines: a polynomial-time
    driver making calls to an oracle that decides "is there a valid package
    with rating at least v, extending N and distinct from the packages
    already selected?".  This module is that oracle, realized as a
    backtracking search over subsets of Q(D) — deterministic, worst-case
    exponential, exactly the observable cost the complexity classes predict.
    The same search core enumerates all valid packages for the baseline
    top-k solver, the counting problem CPP and the maximum-bound problem
    MBP.

    The valid packages of an instance are one fixed set, so the first
    enumeration that runs to completion stores them on the instance as a
    {!Valid_index} (see {!Instance.valid_index}), and every later
    {!all_valid}, {!iter_valid}, {!find_k_distinct}, {!topk}, {!count},
    {!kth_value}, {!ranked} and [containing]-free {!search} replays it
    instead of walking.  A replay visits packages in the walk's canonical
    order, so it returns exactly the walk's answers and witnesses, and it
    ticks once per index entry it reads ({!Solvers.Bnb.Tick.visit}: the
    [oracle.nodes] counter, budgets, the [oracle.node] fault site).  A
    walk cut short — by a fault, a budget or an early exit — stores
    nothing; storing is itself the [memo.valid] fault site. *)

type ctx
(** A search context: the instance with [Q(D)] precomputed and the concrete
    package-size bound fixed. *)

val ctx : ?domains:int -> Instance.t -> ctx
(** [domains] caps the number of OCaml domains the searches below may fan
    out over (default {!Parallel.Pool.default_domains}, i.e. the available
    cores; clamped to at least 1).  Small search spaces stay sequential
    regardless.  Results — including the exact witnesses returned and
    their order — are identical for every [domains] setting: the parallel
    driver decomposes the search by root branch and recombines in
    canonical branch order. *)

val instance : ctx -> Instance.t

val domains : ctx -> int

val candidates : ctx -> Relational.Tuple.t list
(** The items [Q(D)], in increasing tuple order. *)

val candidate_count : ctx -> int

val search :
  ctx ->
  ?rating:(Package.t -> float) ->
  ?containing:Package.t ->
  ?excluded:Package.t list ->
  ?strict:bool ->
  bound:float ->
  unit ->
  Package.t option
(** [search ctx ~bound ()] finds a package [N] with: [N ⊆ Q(D)],
    [|N| ≤] size bound, [cost(N) ≤ C], [Qc(N, D) = ∅], [rating N ≥ bound]
    (strictly greater with [~strict:true]), [N] a strict superset of
    [containing] when given, and [N] distinct from every package in
    [excluded].  [rating] defaults to the instance's val(); overriding it is
    how the FRP construction installs its [val_{c,i,N}] variants.  The empty
    package is a legitimate candidate (the paper's reductions use it).

    The walk prunes sub-trees that certainly hold no valid package: when
    the cost is monotone — declared, or additive ({!Rating.additive})
    with every candidate contributing [>= 0] — a non-empty package over
    the budget, and when Qc is negation-free (CQ, UCQ, ∃FO⁺, Datalog
    without negation) and hence monotone, an incompatible package.  This
    never changes the answer.  Without [containing], a stored index is
    replayed instead. *)

val iter_valid : ctx -> (Package.t -> unit) -> unit
(** Calls the function on every package satisfying conditions (1)–(4)
    (including the empty package if it is valid), each exactly once. *)

val all_valid : ctx -> Package.t list
(** Materialized {!iter_valid}, in visit (size-lexicographic DFS) order;
    computed on the context's domains when the search space is large
    enough. *)

val index : ctx -> Valid_index.t option
(** The stored index of this context's instance, if there is one whose
    key matches (no walk). *)

val valid_index : ?visit:(Package.t -> unit) -> ctx -> Valid_index.t
(** The index: the stored one, or one built from a fresh walk over all
    valid packages (stored when it has at most {!Instance.compat_memo_cap}
    packages).  A walk given [visit] runs on one domain and calls it on
    each valid package as it is found, in canonical order — the hook of
    the anytime (budgeted) entry points; a replay does not call it. *)

val ranked : ctx -> Package.t Seq.t
(** Every valid package, by val() descending, ties by
    {!Package.compare}; the index is obtained when the sequence is first
    forced. *)

val topk : ?visit:(Package.t -> unit) -> ctx -> k:int -> Package.t list option
(** The first [k] of {!ranked} ([Some []] for [k <= 0]), or [None] when
    fewer than [k] packages are valid.  [visit] as in {!valid_index}. *)

val count :
  ?visit:(Package.t -> unit) -> ?strict:bool -> bound:float -> ctx -> int
(** The number of valid packages rated [>= bound] ([> bound] with
    [~strict:true]), by binary search over the ranking.  [visit] as in
    {!valid_index}. *)

val kth_value : ctx -> k:int -> float option
(** The [k]-th largest val() over the valid packages (with repeats), or
    [None] when fewer than [k] are valid.  Raises [Invalid_argument]
    when [k < 1]. *)

val find_k_distinct :
  ?strict:bool -> bound:float -> k:int -> ctx -> Package.t list option
(** [k] pairwise-distinct valid packages each rated [>= bound] ([> bound]
    with [~strict:true]), or [None] if fewer exist.  This decides the
    language L1 of Theorem 5.2 (and, negated with [strict], L2). *)
