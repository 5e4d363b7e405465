(** Dispatch to the exact solvers, with plan verification and
    degradation under a constant size bound.

    The entry points here are drop-in equivalents of {!Frp.enumerate},
    {!Mbp.max_bound} and {!Cpp.count}, which they call.  There are two
    routes, and the budgeted variants choose between them: an instance
    with a constant size bound (Corollary 6.1, items instances with
    [|N| ≤ 1] included) is polynomial and degrades to an exact answer on
    exhaustion; any other instance is the general, possibly hard case and
    surfaces [Partial]. *)

val advisor_flags : Instance.t -> Analysis.Advisor.flags
(** The instance's flags as seen by the advisor. *)

val report : Instance.t -> problem:Analysis.Advisor.problem
  -> Analysis.Advisor.report
(** The advisor's complexity report for running [problem] on the
    instance. *)

val topk : Instance.t -> k:int -> Package.t list option
(** FRP: {!Frp.enumerate}. *)

val max_bound : Instance.t -> k:int -> float option
(** MBP: {!Mbp.max_bound}. *)

val count : Instance.t -> bound:float -> int
(** CPP: {!Cpp.count}. *)

(** {2 Plan verification mode} *)

val verify_plans : Instance.t -> Analysis.Diagnostic.t list
(** Statically verify every plan the instance would evaluate: the selection
    query's plan over the instance database, and — when the compatibility
    constraint is a query — its plan over the database extended with an
    empty answer relation (the shape it runs against).  Runs all
    {!Analysis.Plan_check} passes; sorted errors-first. *)

val verify_mode : bool
(** Whether [PKG_VERIFY_PLANS] is set (to anything but [""] or ["0"]) in
    the environment: the budgeted entry points below then call
    {!verify_plans} before evaluating and fail on any P-series error. *)

(** {2 Budgeted dispatch}

    The [_b] variants run the solver under a {!Robust.Budget}.  On
    exhaustion, when the size bound is a constant — polynomial by
    Corollary 6.1 — the dispatcher {e degrades}: it re-runs that exact
    polynomial algorithm with the budget masked
    ([Robust.Budget.unbudgeted]) and still returns [Exact], bumping the
    [robust.degraded] counter.  Only instances with a polynomial size
    bound surface [Partial]. *)

val topk_b :
  ?budget:Robust.Budget.t ->
  Instance.t ->
  k:int ->
  (Package.t list option, Package.t) Robust.Budget.outcome
(** Budgeted {!topk}; a [Partial] carries the best valid package found. *)

val max_bound_b :
  ?budget:Robust.Budget.t ->
  Instance.t ->
  k:int ->
  (float option, float) Robust.Budget.outcome
(** Budgeted {!max_bound}; a [Partial] is always Unknown (no payload). *)

val count_b :
  ?budget:Robust.Budget.t ->
  Instance.t ->
  bound:float ->
  (int, int) Robust.Budget.outcome
(** Budgeted {!count}; a [Partial] carries a verified lower bound. *)
