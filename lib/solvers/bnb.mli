(** The shared branch-and-bound kernel.

    Every search loop in this repository — the package-enumeration oracle
    ({!Core.Exist_pack}), the DPLL SAT solver ({!Sat}), the MaxSAT
    optimizer ({!Maxsat}) and the pseudo-Boolean solver ({!Pb}) behind the
    PaQL surface — shares the same skeleton: decide, propagate/extend,
    bound, backtrack.  This module owns that skeleton once:

    - {!Tick} is the per-node discipline (an [Observe] counter bump, a
      cooperative {!Robust.Budget.check}, the solver's own
      {!Robust.Fault} site, and the kernel-wide ["bnb.node"] site);
    - {!Trail} is undo-based backtracking with second-mark support (a
      decision flip unwinds to the post-propagation mark, a failed node to
      its entry mark — the discipline the DPLL regression of PR 2 fixed);
    - {!Incumbent} tracks the best complete solution seen so far, the
      anytime payload a budget-exhausted run reports as a sound [Partial];
    - {!Make} is a generic depth-first branch-and-bound driver over
      immutable states (MaxSAT, pseudo-Boolean);
    - {!Subset} is the indexed-subset enumeration of the package oracle:
      one sequential walk in size-lexicographic order, so the first
      accepted state and the order of collected states are canonical. *)

module Tick : sig
  type t

  val make : ?counter:Observe.counter -> site:string -> unit -> t
  (** A node discipline: [visit] bumps [counter] (when given), runs
      {!Robust.Budget.check}, then probes the solver's fault [site] and
      the kernel's ["bnb.node"] site. *)

  val visit : t -> unit

  val visit_root : t -> unit
  (** Counter bump only — the root of an enumeration is counted but never
      budgeted or faulted (it exists before any decision is made). *)
end

module Trail : sig
  type 'a t
  (** A backtracking trail: entries pushed most-recent-first, unwound by
      suffix marks.  The mark is the trail itself (the trail only grows by
      consing, so physical equality identifies a suffix); taking a mark is
      O(1) and second marks — one at node entry, one after propagation —
      cost nothing extra. *)

  type 'a mark

  val create : ?unwinds:Observe.counter -> undo:('a -> unit) -> unit -> 'a t
  (** [undo] is applied to each popped entry; [unwinds] (when given) is
      bumped once per {!undo_to} call that actually pops something. *)

  val mark : 'a t -> 'a mark

  val push : 'a t -> 'a -> unit

  val undo_to : 'a t -> 'a mark -> unit
  (** Unwind to a previous mark of the same trail.  Entries pushed since
      the mark are popped (most recent first) through [undo]. *)
end

module Incumbent : sig
  type 'a t
  (** Best-so-far tracking for maximization: strictly improving solutions
      replace the incumbent; ties keep the earlier one (the canonical
      visit order then determines the witness). *)

  val create : ?on_improve:(float -> 'a -> unit) -> unit -> 'a t

  val note : 'a t -> float -> 'a -> unit

  val value : 'a t -> float
  (** [neg_infinity] while empty — a bound test against an empty incumbent
      never prunes. *)

  val best : 'a t -> (float * 'a) option
end

(** A generic depth-first branch-and-bound maximizer over immutable
    states. *)
module type SPACE = sig
  type state

  val tick : Tick.t

  val branches : state -> state list
  (** Children in canonical visit order; [[]] at leaves.  Feasibility
      pruning belongs here (a pruned child is simply not returned). *)

  val solution : state -> float option
  (** [Some v] when the state is a complete solution of value [v]. *)

  val bound : state -> float
  (** Optimistic upper bound on {!solution} over the whole subtree rooted
      at the state (including the state itself).  Subtrees whose bound
      does not beat the incumbent are cut. *)
end

module Make (S : SPACE) : sig
  val maximize :
    ?incumbent:S.state Incumbent.t -> S.state -> (float * S.state) option
  (** Depth-first B&B from the given root: every node pays one
      {!Tick.visit}, subtrees are cut when [S.bound] cannot beat the
      incumbent, and the best solution (with its value) is returned.
      Passing [incumbent] seeds the bound and exposes the anytime
      payload to the caller (for sound budget-exhausted partials). *)
end

(** Indexed-subset enumeration: the package oracle's search space. *)
module Subset : sig
  type ('st, 'it) space = {
    items : 'it array;  (** branching order; item [j] extends with index [j] *)
    max_size : int;  (** depth cap: states of size [max_size] are leaves *)
    size : 'st -> int;
    skip : 'st -> 'it -> bool;
        (** item already present in the state (never extended with) *)
    child : 'st -> 'it -> 'st option;
        (** [None] prunes the whole branch (e.g. monotone cost over
            budget); the space bumps its own prune counter *)
    tick : Tick.t;
  }

  val enumerate : ('st, 'it) space -> base:'st -> ('st -> unit) -> unit
  (** [base] itself (counted via {!Tick.visit_root}) followed by every
      strict extension of it in size-lexicographic DFS order; every
      extension visited pays one {!Tick.visit}. *)

  val find_first :
    ('st, 'it) space -> base:'st -> accept:('st -> bool) -> 'st option
  (** The first accepted state of {!enumerate}'s order; the walk stops
      there. *)

  val collect :
    ('st, 'it) space -> base:'st -> keep:('st -> bool) -> 'st list
  (** Every kept state, in {!enumerate}'s order. *)
end
