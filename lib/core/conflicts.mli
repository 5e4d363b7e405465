(** Conflict sets of a CQ/UCQ compatibility constraint.

    For Qc a union of safe conjunctive queries and a package N ⊆ Q(D),
    Qc(D ⊕ N) is non-empty exactly when some witness of some disjunct
    maps that disjunct's answer-relation atoms into N.  The images of
    those atoms over D ⊕ Q(D) form a fixed family of at most k-tuple
    subsets of Q(D) — the conflict hypergraph of consistent query
    answering — and N is compatible iff it contains none of them.  The
    family is computed once by one query evaluation per disjunct; every
    later check is a subset test. *)

type t

val build :
  cap:int ->
  Relational.Database.t ->
  answer:(unit -> Relational.Relation.t) ->
  Qlang.Query.t ->
  t option
(** [build ~cap db ~answer qc] computes the conflict sets of [qc] over
    [db] extended with [answer ()], Q(D) under the relation name Qc reads
    it by (asked for only when the route applies).  [None], for the
    caller to evaluate Qc instead, when [qc] is not a CQ or UCQ, is
    adom-sensitive, or has a disjunct that does not decompose as a
    conjunctive query (a [Dist] atom); when building raises
    [Invalid_argument] or [Failure]; or when the family has
    more than [cap] sets.  Budget exhaustion and injected faults
    propagate; a build that applies first visits the [memo.compat] fault
    site.  Counted by [compat.conflict_builds] and
    [compat.conflict_sets], or [compat.conflict_fallbacks] for [None]. *)

val compatible : t -> Package.t -> bool option
(** [Some (Qc(D ⊕ N) = ∅)] for a package inside Q(D), answered by
    testing whether it contains a conflict set (counted by
    [compat.conflict_checks]); [None] when the package has a member
    outside Q(D) (counted by [compat.conflict_fallbacks]). *)
