(** Compiling PaQL package queries onto the package-recommendation core.

    A parsed {!Qlang.Paql.t} desugars in two coordinated directions:

    - an {!Instance.t} — the paper's (Q, D, Qc, cost, val, C) view.  WHERE
      predicates (plus the per-tuple halves of MIN/MAX global constraints)
      become the selection query's candidate filter; the first SUM/COUNT
      ≤-constraint becomes cost() and the budget C (COUNT also fixes the
      constant size bound); {e every} SUCH THAT constraint is re-checked by
      a PTIME [Compat_fn], so {!Validity.compatible} certifies exactly the
      surface semantics no matter which constraint was promoted;
    - a {e linear pseudo-Boolean program} over tuple-selection variables
      ({!linear}), solved exactly by {!Solvers.Pb} and approximately by
      {!Sketch}.  SUM/COUNT constraints are linear rows; MIN ≤ / MAX ≥
      become indicator rows (at least one qualifying tuple selected).

    Aggregate semantics on the empty package follow the MIN = +∞ / MAX =
    −∞ convention, which is what makes the per-tuple prefilter for
    MIN ≥ / MAX ≤ sound. *)

type linear = {
  cands : Relational.Tuple.t array;
      (** candidate tuples, in relation order — index [j] is selection
          variable [x_j] *)
  objective : float array;
      (** per-tuple objective coefficient; already negated for MINIMIZE so
          the solvers always maximize *)
  constraints : Solvers.Pb.constr list;
  minimize : bool;
}

type t = {
  query : Qlang.Paql.t;
  inst : Instance.t;
  linear : linear;
}

type answer = {
  package : Package.t;
  objective : float;
      (** surface-objective value (un-negated even under MINIMIZE); [0.]
          for feasibility-only queries *)
}

val compile :
  Relational.Database.t -> Qlang.Paql.t -> (t, string) result
(** Resolves columns against the FROM relation's schema; [Error] names the
    offending column/relation or the unsupported construct (MIN/MAX as the
    objective). *)

val compile_exn : Relational.Database.t -> Qlang.Paql.t -> t

val parse_and_compile :
  Relational.Database.t -> string -> (t, string) result
(** {!Qlang.Paql.parse} followed by {!compile}; syntax errors are returned
    as [Error] rather than raised. *)

val schema : t -> Relational.Schema.t
(** Schema of the FROM relation (column resolution for partitioning). *)

val program : t -> Solvers.Pb.program
(** The pseudo-Boolean program (objective + rows over [linear.cands]). *)

val package_of_selection : t -> bool array -> Package.t

val answer_of_selection : t -> float -> bool array -> answer

val answer_of_chosen : t -> float -> int list -> answer
(** {!answer_of_selection} for the selection given by its candidate
    indices. *)

val satisfies : t -> Package.t -> bool
(** The surface SUCH THAT semantics, checked directly on a package via the
    desugared instance's [Compat_fn] — the certificate used by the tests
    and by SketchRefine's final feasibility check. *)

val solve_exact : t -> answer option
(** Exact optimum via {!Solvers.Pb.solve}; [None] when no package (not
    even the empty one) satisfies the constraints. *)

val solve_budgeted :
  ?budget:Robust.Budget.t ->
  t ->
  (answer option, answer) Robust.Budget.outcome
(** Budgeted {!solve_exact}: exhaustion yields the best feasible incumbent
    as a sound [Partial]. *)
