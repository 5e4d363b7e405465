(** FRP — computing a top-k package selection (Theorem 5.1).

    Three solvers:

    - {!enumerate}: the baseline — enumerate every valid package, rank by
      rating, take the k best.  Simple and obviously correct; exponential
      in the first call on an instance, which stores the ranking
      ({!Exist_pack.topk}); later calls read k entries of it.
    - {!oracle}: the paper's function algorithm — a polynomial-time driver
      around the EXISTPACK≥ oracle: binary search over the rating interval
      for the best achievable bound B, then a tuple-by-tuple package
      construction driven by rating overrides, repeated k times with
      previously selected packages excluded.  Requires the instance's
      val() to be integer-valued on packages and to lie in
      [[val_lo, val_hi]].  The construction refines the paper's step 3(c)
      at tuple granularity (the paper's column-wise [val_{c,i,N}] matrix
      can assemble a tuple outside every optimal extension — see the
      implementation comment); the oracle call count stays polynomial.
    - {!greedy}: a practical heuristic baseline with no optimality
      guarantee, used in the benchmarks for comparison.

    All solvers return packages in non-increasing rating order. *)

val enumerate : ?ctx:Exist_pack.ctx -> Instance.t -> k:int -> Package.t list option
(** [None] when fewer than [k] distinct valid packages exist. *)

val enumerate_budgeted :
  ?budget:Robust.Budget.t ->
  ?ctx:Exist_pack.ctx ->
  Instance.t ->
  k:int ->
  (Package.t list option, Package.t) Robust.Budget.outcome
(** Anytime {!enumerate}.  Without a budget (explicit or ambient) this is
    exactly [Exact (enumerate inst ~k)].  On exhaustion [Partial] reports
    the best valid package the walk found so far (always a sound answer:
    valid, within budget, rated ≤ the true optimum), or [None] when none
    was reached.  When the instance already stores its
    valid-package index the answer is read from it, and an exhaustion
    there reports [None]. *)

val oracle :
  ?ctx:Exist_pack.ctx ->
  Instance.t ->
  k:int ->
  val_lo:int ->
  val_hi:int ->
  Package.t list option
(** The paper's FP^{Σ₂ᵖ} algorithm.  Raises [Failure] if val() is observed
    to be non-integral or out of range, or if the construction invariant is
    violated (which would indicate a bug, not a property of the input). *)

val greedy : ?ctx:Exist_pack.ctx -> Instance.t -> k:int -> Package.t list
(** Up to [k] packages found greedily (possibly fewer); each is valid, but
    not necessarily top-rated. *)

val branch_and_bound :
  ?ctx:Exist_pack.ctx ->
  ?compat_antimonotone:bool ->
  Instance.t ->
  item_value:(Relational.Tuple.t -> float) ->
  k:int ->
  Package.t list option
(** An exact top-k solver for *additive* ratings: requires
    [val(N) = Σ_{t ∈ N} item_value t] on every non-empty package (checked
    by assertion on the returned packages).  Branch and bound over items in
    decreasing value order, with the optimistic bound "current value + sum
    of remaining positive item values"; budget pruning uses the instance
    cost's monotonicity flag.  Set [compat_antimonotone] when the
    compatibility constraint is anti-monotone — every superset of an
    incompatible package is incompatible, which holds for *positive* Qc
    (CQ/UCQ/∃FO⁺/Datalog) that only reads RQ positively — to also prune
    incompatible subtrees.  Returns the same ratings as {!enumerate}
    restricted to non-empty packages (the empty package is never returned;
    package-level ties may be broken differently). *)

val stream : ?ctx:Exist_pack.ctx -> Instance.t -> Package.t Seq.t
(** Ranked enumeration: every valid package exactly once, in non-increasing
    rating order (ties broken deterministically) — the "retrieve the top-k
    answers one at a time" interface of the incremental top-k literature the
    paper discusses.  The valid-package index is obtained on first
    demand; each package is rebuilt only when the sequence reaches it.  [Frp.enumerate inst ~k] equals the first
    k elements whenever at least k exist. *)
