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
      (0.3 − (0.1 + 0.2) < 0) still packs zero-cost variables;
    - {e a Lagrangian node bound}, intersected with both: once per solve,
      multipliers [λ_r ≥ 0], one per internal [≤]-row, are fitted by
      coordinate descent on the Lagrangian dual of the LP relaxation
      (see {!dual_bound}).  With reduced costs
      [red_j = obj_j − Σ_r λ_r·c_rj], a node's bound is
      [obj + Σ_r λ_r·(b_r + 1e-9 − lhs_r) + Σ_{j≥i} max(red_j, 0)]: every
      completion meeting the rows leaves [λ_r·(b_r + 1e-9 − lhs_r −
      Σ_{j≥i} c_rj·x_j) ≥ 0], so the bound is sound for any [λ ≥ 0].
      The last sum is a precomputed suffix, so a node pays O(rows), and
      a relative slack of 1e-9·(1 + the terms' magnitude) keeps rounding
      from cutting a strictly better completion.  It sees every row at
      once, so a binding [COUNT ≤ k] or [SUM ≥] row bounds the search,
      MINIMIZE programs included;
    - {e one branch per run of identical columns}: adjacent variables
      equal in objective and in every row form a run, and the skip child
      jumps past the rest of the run, so a run is only taken as a prefix
      (a sketch program's copies of one representative are such a run).
      The selections within a run are interchangeable and give
      bit-identical row sums (the same values added in the same order).

    The suffix sums of the feasibility test and of the crude and
    knapsack bounds are taken from the end, while a leaf sums its row and
    objective in index order; at magnitudes of 1e8 and more the two round
    apart by more than the 1e-9 tolerance.  So each of those comparisons
    is raised by the same relative slack as the Lagrangian bound,
    1e-9·(1 + the magnitude of its terms), over precomputed suffix sums of
    |c| (still O(rows) a node); the knapsack's capacity gets its row's
    slack.  A row, or the objective, whose numbers are integers summing
    below 2^53 gets none: every sum of them is exact.  The leaf check
    stays absolute, so feasibility means what {!feasible} says.

    Ties keep the first solution in visit order, making answers
    deterministic.  The take-before-skip order reaches the prefix form of
    an optimum before any other form of it, so the run skip and the
    Lagrangian bound leave unbudgeted answers, value and selection,
    unchanged; they only cut nodes, which is what lets a fuel-capped
    solve finish. *)

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

val holds : constr -> float -> bool
(** [holds row v]: the row holds when its left-hand side sums to [v]
    (within a 1e-9 tolerance). *)

val feasible : program -> bool array -> bool
(** Every constraint {!holds}, each left-hand side summed in index
    order. *)

val objective_value : program -> bool array -> float

type dual = {
  bound : float;
      (** [L(λ)]: an upper bound on the optimum over selections that meet
          every row within the 1e-9 tolerance; finite even when no
          selection is feasible *)
  multipliers : float array;
      (** [λ ≥ 0], one per internal [≤]-row: the constraints in order, a
          [Ge] row as its negation, an [Eq] row as its [≤] half followed by
          its negated [≥] half *)
}

val dual_bound : program -> dual
(** The root Lagrangian multipliers {!solve} bounds its nodes with, and
    their dual value: coordinate descent on the Lagrangian dual of the LP
    relaxation, each step an exact one-dimensional minimisation, for at
    most 20 sweeps and until a sweep no longer improves the bound. *)

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
