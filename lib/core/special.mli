(** Tractable special cases (Section 6 of the paper).

    Corollary 6.1: with a constant package-size bound Bp, RPP, FRP, MBP and
    CPP all drop to PTIME/FP data complexity — there are only polynomially
    many candidate packages, so plain enumeration suffices.  The wrappers
    here enforce the constant bound (so calling them *is* a claim of
    polynomial running time) and run the enumeration-based solvers.

    Corollary 6.2: SP queries (selection + projection over a single atom)
    admit single-scan evaluation.  That is a property of the plan engine,
    not a separate evaluator: an SP query compiles to one scan under its
    filters, which {!Analysis.Plan_check.certify} checks. *)

val require_const_bound : Instance.t -> int
(** The constant bound Bp; raises [Invalid_argument] if the instance uses a
    polynomial size bound. *)

val topk : Instance.t -> k:int -> Package.t list option
(** FRP under a constant bound (FP data complexity). *)

val is_topk : Instance.t -> Package.t list -> bool
(** RPP under a constant bound (PTIME data complexity). *)

val max_bound : Instance.t -> k:int -> float option
(** MBP under a constant bound (PTIME data complexity). *)

val is_max_bound : Instance.t -> k:int -> bound:float -> bool

val count : Instance.t -> bound:float -> int
(** CPP under a constant bound (FP data complexity). *)
