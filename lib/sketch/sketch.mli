(** SketchRefine: approximate package solving at scale.

    The exact solvers are exponential in the candidate count — the right
    cost model for the paper's complexity results, and a dead end at 10⁶
    tuples.  This module implements the SketchRefine strategy of Brucato
    et al. ("Scalable Package Queries in Relational Database Systems"):

    + {e Partition} the candidate tuples into [npartitions] groups on a
      key column (tuples sorted by the interned column value, contiguous
      slices — equal values land in the same partition), recording
      per-partition aggregate stats (count, min/max/mean of every column
      the query touches);
    + {e Represent} each partition by the member tuple closest to the
      partition's mean key value;
    + {e Sketch}: solve the package query over representatives, each
      duplicated up to the partition's multiplicity cap — an instance
      small enough for the exact {!Solvers.Pb} branch-and-bound;
    + {e Refine} partition by partition (largest planned objective
      contribution first): replace a representative's multiplicity with
      real tuples from its partition by solving a small residual
      pseudo-Boolean program over a shortlist, the other partitions held
      at their current (sketched or already-refined) contributions;
      an infeasible refine step backtracks — first by widening the
      shortlist, then by re-sketching with the failing partition's
      multiplicity reduced;
    + {e Check}: the final package is validated against the full query
      semantics ({!Core.Paql_compile.satisfies}, i.e. the instance's
      [Validity] view) — an approximate answer is never an infeasible
      one.

    Alongside the pipeline, two cheap sound fallbacks (greedy
    ratio packing and the best feasible singleton) are always computed,
    once, before the pipeline; the best feasible candidate wins, and on
    equal objectives the earlier of sketch-refine, greedy, singleton and
    the empty package.  On knapsack-shaped queries
    (nonnegative SUM budget + SUM objective) [max(greedy, singleton)] is
    the classical 1/2-approximation, which is the floor the test corpus
    asserts.

    Fault sites: ["sketch.partition"] (per partition built),
    ["sketch.refine"] (per refine step).  All phases run under the
    ambient {!Robust.Budget}; budgeted entry points return the best
    feasible package found so far as a sound [Partial]. *)

type stats = {
  npartitions : int;
  partitions_touched : int;  (** partitions the refine phase entered *)
  backtracks : int;
  winner : string;
      (** which candidate answered: ["sketch-refine"], ["greedy"],
          ["singleton"], ["empty"] or ["none"] *)
}

type outcome = {
  answer : Core.Paql_compile.answer option;
  stats : stats;
}

val solve : ?npartitions:int -> Core.Paql_compile.t -> outcome
(** [npartitions] defaults to a count that adapts to the candidates
    (clamped to [2..24]); each refine subproblem starts from a shortlist
    of 48 tuples. *)

val solve_budgeted :
  ?budget:Robust.Budget.t ->
  ?npartitions:int ->
  Core.Paql_compile.t ->
  (outcome, Core.Paql_compile.answer) Robust.Budget.outcome
(** {!solve} under a budget.  Exhaustion mid-pipeline (including
    mid-refine) returns the best {e feasible} package seen so far —
    feasibility is checked before a candidate is recorded, so a deadline
    can truncate quality but never soundness. *)

val install : unit -> unit
(** A no-op, kept for callers written when this module registered an
    instance-level candidate shrinker with {!Core.Dispatch}; the
    dispatcher now always solves exactly. *)
