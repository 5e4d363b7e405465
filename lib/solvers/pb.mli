(** Exact linear pseudo-Boolean optimization, as a {!Bnb.Make}
    instantiation.

    The PaQL surface compiles a package query's global (SUCH THAT)
    constraints to a program over tuple-selection variables [x_j ∈ {0,1}]:
    maximize [Σ obj_j·x_j] subject to linear rows [Σ c_j·x_j ⋈ rhs] with
    [⋈ ∈ {≤, ≥, =}].  The solver is a depth-first branch-and-bound on the
    variables in index order (take before skip), with:

    - {e feasibility pruning}: per row, the minimum achievable remaining
      contribution is precomputed as a suffix sum, and any node that
      cannot satisfy the row is cut;
    - {e an LP-relaxation-style bound}: the fractional greedy (sorted
      ratio) knapsack bound over a nonnegative ≤-row when the program has
      one, intersected with the sum of remaining positive objective
      coefficients — both sound upper bounds, so their minimum is too.
      The ratio order is kept as a doubly linked list from which the
      search path's decided variables are unlinked (and relinked, in
      reverse, on backtrack), so a node's bound walks only undecided
      variables, up to the first that does not fit: O(n) memory per
      solve and O(1) amortized upkeep per node.  The walk starts from the
      row's remaining capacity clamped at 0, so a row full up to rounding
      (0.3 − (0.1 + 0.2) < 0) still packs zero-cost variables.

    Ties keep the first solution in visit order, making answers
    deterministic. *)

type cmp = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** length [nvars] *)
  cmp : cmp;
  rhs : float;
}

type program = {
  nvars : int;
  objective : float array;  (** length [nvars] *)
  constraints : constr list;
}

val feasible : program -> bool array -> bool
(** Every constraint holds (within a 1e-9 tolerance). *)

val objective_value : program -> bool array -> float

val solve :
  ?on_improve:(float -> bool array -> unit) ->
  program ->
  (float * bool array) option
(** The optimum and a witness selection, or [None] when no selection is
    feasible.  [on_improve] fires on each strictly improving incumbent —
    the anytime payload for budgeted runs. *)

val solve_budgeted :
  ?budget:Robust.Budget.t ->
  program ->
  ((float * bool array) option, float * bool array) Robust.Budget.outcome
(** {!solve} under a budget: exhaustion returns the best incumbent found
    so far as a sound [Partial] (the incumbent is always feasible). *)
