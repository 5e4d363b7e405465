(** The complexity advisor: Tables 8.1 and 8.2 of the paper as a lookup.

    Given a problem, the inferred language of the selection/compatibility
    queries and the instance flags (compatibility constraints present,
    constant package-size bound, single-item packages, PTIME compatibility
    predicate), the advisor returns the exact complexity cell — combined
    complexity from Table 8.1, data complexity from Table 8.2 — together
    with the theorem establishing it.  It also certifies compiled plan
    shapes against those promises (an SP query is one scan, Corollary
    6.2); the plan engine is the only evaluator, so nothing routes around
    it.

    The class strings are byte-identical to the annotations carried by the
    benchmark harness ([bench/main.ml]'s [~paper] arguments), which
    cross-checks every row it exercises against this table. *)

type problem = Rpp | Frp | Mbp | Cpp | Qrpp | Arpp

val all_problems : problem list
val problem_to_string : problem -> string

val problem_of_string : string -> problem option
(** Case-insensitive. *)

type cell = {
  cls : string;  (** the complexity class, e.g. ["Πᵖ₂-complete"] *)
  cite : string;  (** where the paper proves it, e.g. ["Theorem 4.1"] *)
}

type flags = {
  compat : bool;  (** compatibility constraints Qc present *)
  const_bound : bool;  (** package size bounded by a constant (Cor 6.1) *)
  items : bool;  (** single-item packages, |N| = 1 (Cor 7.3 / 8.2) *)
  ptime_compat : bool;  (** Qc is a PTIME predicate (Cor 6.3) *)
}

val no_flags : flags

type report = {
  problem : problem;
  lang : Qlang.Query.lang;
  flags : flags;
  combined : cell;  (** Table 8.1 *)
  data : cell;  (** Table 8.2, after applying the flags *)
  notes : string list;
}

val combined : problem -> lang:Qlang.Query.lang -> compat:bool -> cell
(** The Table 8.1 cell.  SP, CQ, UCQ and ∃FO⁺ share the CQ row (the paper
    proves identical bounds); FO and DATALOGnr share a row; DATALOG has its
    own. *)

val data : problem -> flags:flags -> cell
(** The Table 8.2 cell: the poly-bounded row unless a constant bound
    applies (Corollary 6.1 collapse to PTIME/FP — except ARPP, which stays
    NP-complete even for single items, Corollary 8.2). *)

val advise : problem -> lang:Qlang.Query.lang -> flags:flags -> report

val pp_report : Format.formatter -> report -> unit

(** {2 Plan-shape certification}

    The complexity analysis makes promises about physical plan shapes:
    an SP query is a single scan (Corollary 6.2), positive fragments
    never need active-domain complements, Datalog compiles to a fixpoint.
    [certify_plan] checks the {!Qlang.Plan.shape} census of a compiled
    plan against the fragment of the query it came from; the tests assert
    certification and [recommend --explain] prints it, so a planner
    regression surfaces as a shape violation. *)

type certificate = Certified of string | Violation of string

val certificate_ok : certificate -> bool
val certificate_to_string : certificate -> string

val certify_plan : Qlang.Query.t -> Qlang.Plan.t -> certificate
