(** Cooperative execution budgets: wall-clock deadlines and fuel
    counters.

    A budget is installed for the current domain with {!with_budget} (or
    implicitly by {!run}); instrumented loops call {!check}, which is a no-op
    when no budget is installed and a single atomic increment otherwise — the
    same "cheap when off" discipline as [Observe].  Exhaustion raises
    {!Exhausted} internally, but public entry points wrap the computation in
    {!run} so callers only ever see an {!outcome}. *)

type reason =
  | Deadline  (** wall-clock deadline passed *)
  | Fuel  (** fuel (check count) exhausted *)
  | Fault of string  (** injected by [Robust.Fault] at the named site *)

val reason_to_string : reason -> string

(** Raised by {!check} when the installed budget is exhausted.  Never escapes
    a {!run} wrapper; only code between a raw [check] and the nearest [run]
    sees it (and must not swallow it). *)
exception Exhausted of reason

type t

(** [make ?deadline ?fuel ()] creates a budget.  [deadline] is relative
    seconds from now; [fuel] is the number of {!check} calls allowed.
    Omitted limits are unlimited. *)
val make : ?deadline:float -> ?fuel:int -> unit -> t

(** Number of checks performed so far against this budget. *)
val ticks : t -> int

(** The budget installed for the current domain, if any. *)
val current : unit -> t option

(** [with_budget b f] runs [f] with [b] installed for this domain, restoring
    the previous budget afterwards (even on exception). *)
val with_budget : t -> (unit -> 'a) -> 'a

(** [unbudgeted f] runs [f] with no budget installed — used by [Dispatch]
    when degrading to a guaranteed-polynomial algorithm that must be allowed
    to finish. *)
val unbudgeted : (unit -> 'a) -> 'a

(** Cooperative check point.  No installed budget: one domain-local read.
    Installed: one atomic increment, plus a clock read every 256 ticks when a
    deadline is set.  Raises {!Exhausted} (once per budget, latched) when any
    limit is hit. *)
val check : unit -> unit

(** Outcome of a budgeted computation.  ['a] is the exact answer type, ['p]
    the partial-payload type (they often differ: an exact top-k is a list,
    the partial payload is "best package so far"). *)
type ('a, 'p) outcome =
  | Exact of 'a
  | Partial of { best_so_far : 'p option; reason : reason; work_done : int }

(** [run ?budget ~partial f] evaluates [f] to [Exact], or catches
    {!Exhausted} and builds [Partial] with [partial reason] as payload.
    [?budget] is installed around [f]; without it [f] runs under the ambient
    budget (if any).  With no budget anywhere the only overhead is the
    try/with frame. *)
val run : ?budget:t -> partial:(reason -> 'p option) -> (unit -> 'a) -> ('a, 'p) outcome
