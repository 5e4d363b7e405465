(** Package validity: conditions (1)–(4) of the paper's top-k definition and
    the rating-bound condition of "valid for (Q, D, Qc, cost, val, C, B)"
    (Section 5). *)

val compatible : Instance.t -> Package.t -> bool
(** [Qc(N, D) = ∅] — the database is extended with the package under the
    {!Instance.answer_rel} name before evaluating Qc.  Always true when
    constraints are absent.  Answered by the {!Instance.compat_route}:
    for a CQ/UCQ Qc and [N ⊆ Q(D)], a subset test against the conflict
    sets (a package outside Q(D) evaluates Qc from scratch); otherwise
    Qc is evaluated as a delta over the prepared plan, memoized per
    package. *)

val within_budget : Instance.t -> Package.t -> bool
(** [cost(N) ≤ C]. *)

val within_size : Instance.t -> Package.t -> bool
(** [|N| ≤ p(|D|)] (or the constant bound). *)

val valid :
  ?candidates:Relational.Relation.t -> Instance.t -> Package.t -> bool
(** Conditions (1)–(4): [N ⊆ Q(D)], compatibility, budget and size.  Pass
    [candidates] to avoid re-evaluating Q(D). *)

val valid_for_bound :
  ?candidates:Relational.Relation.t ->
  Instance.t ->
  bound:float ->
  Package.t ->
  bool
(** {!valid} plus [val(N) ≥ B] — the paper's "valid for
    (Q, D, Qc, cost(), val(), C, B)" used by MBP, CPP, QRPP and ARPP. *)
