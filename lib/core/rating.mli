(** Rating and cost functions over packages.

    The paper assumes cost(), val() (and the item utility f()) are arbitrary
    PTIME-computable functions.  A rating here is a named OCaml function
    over packages, built from aggregate combinators covering everything the
    paper's proofs and examples use; [of_fun] is the escape hatch for fully
    custom PTIME functions (Corollary 6.3's PTIME compatibility constraints
    are handled analogously in {!Instance}).

    The [monotone] flag declares that the function is non-decreasing with
    respect to package inclusion *restricted to non-empty packages* (the
    common paper convention [cost(∅) = ∞] breaks monotonicity only at ∅).
    Search procedures use it solely to prune cost-budget violations early,
    never to change answers. *)

type t

val name : t -> string

val eval : t -> Package.t -> float

val is_monotone : t -> bool

val additive : t -> (Relational.Tuple.t -> float) option
(** The per-item contribution [f] of an additive rating: [Some f] means
    that on every non-empty package [N], [eval r N = Σ_{t ∈ N} f t].
    [count], [card_or_infinite] and [sum_col] are additive, and [add],
    [sub], [scale], [neg] and [on_empty] keep additivity; [of_fun],
    [const], [min_col], [max_col], [avg_col] and [clamp_min] report
    [None].  A search may read it to certify monotonicity on a given set
    of items (every contribution [>= 0]) that the rating does not
    declare. *)

val of_fun : ?monotone:bool -> string -> (Package.t -> float) -> t

val const : float -> t

val count : t
(** [|N|].  Monotone. *)

val card_or_infinite : t
(** The paper's standard cost function: [|N|] if [N ≠ ∅] and [+∞] for the
    empty package (so the empty package is never a valid recommendation).
    Monotone. *)

val sum_col : ?nonneg:bool -> int -> t
(** Sum of an [Int] column (non-[Int] values count 0).  Monotone when
    declared [nonneg]. *)

val min_col : int -> t
(** Minimum of an [Int] column; [+∞] on the empty package. *)

val max_col : int -> t
(** Maximum of an [Int] column; [-∞] on the empty package.  Monotone. *)

val avg_col : int -> t
(** Average of an [Int] column; [0] on the empty package. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val neg : t -> t
(** [neg r] is [-r]; useful to rank "lower price is better" (Example 1.1). *)

val on_empty : float -> t -> t
(** [on_empty v r] returns [v] on the empty package and behaves like [r]
    otherwise. *)

val clamp_min : float -> t -> t
(** Pointwise maximum with a constant. *)

val pp : Format.formatter -> t -> unit
