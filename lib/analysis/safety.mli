(** Safety / range-restriction analysis for FO queries.

    The relational calculus of the paper is evaluated under active-domain
    semantics (the plan engine falls back to the active domain for
    negation, universal quantification and unlimited variables).  That is
    always *sound* for the paper's complexity results, but a query whose
    free or head variables are not limited by positive atoms is
    domain-dependent: its answer changes when the database grows with
    unrelated values.  This analysis computes the classical safe-range
    ("limited") variables and flags every silent fall-back.

    Codes: [A001] (error) free or head variable not limited; [A002]
    (warning) existential variable not limited inside its scope; [A003]
    (warning) universal quantification; [A004] (warning) negation whose
    free variables the positive sibling conjuncts do not limit (a guarded
    negation plans as an anti-join and is not flagged). *)

val limited_vars : Qlang.Ast.formula -> string list
(** The range-restricted (limited) variables: bound to values of the
    database by positive relation atoms and constant/variable equalities.
    [rr(atom) = vars(atom)]; [rr(f ∧ g)] is the union closed under [x = y]
    equality propagation; [rr(f ∨ g)] the intersection; [rr(¬f) = ∅];
    [rr(∃x̄ f) = rr(f) \ x̄]; [rr(∀x̄ f) = ∅]. *)

val check_formula : Qlang.Ast.formula -> Diagnostic.t list
(** Warnings [A002]–[A004] for domain-dependent subformulas. *)

val check_query : Qlang.Ast.fo_query -> Diagnostic.t list
(** {!check_formula} on the body plus [A001] errors for head or free body
    variables that are not limited. *)
