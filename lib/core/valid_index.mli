(** A compact, answer-ready copy of an instance's valid packages.

    Under a constant size bound the valid packages number at most
    |Q(D)|^Bp (Corollary 6.1), and every package verb — top-k, counting,
    the maximum bound, the RPP check — is a pass over that one set.  The
    index keeps it as candidate-index arrays over the search's candidate
    array (one flat [int array] plus offsets, not [Package.t] values),
    with each package's val() and a ranking by val() descending.
    Packages are rebuilt as {!Package.t} only when an answer returns
    them. *)

type t

val build :
  items:Relational.Tuple.t array ->
  value:(Package.t -> float) ->
  Package.t list ->
  t
(** [build ~items ~value pkgs] indexes [pkgs], kept in the given order
    (the search's canonical size-lexicographic DFS order).  [items] must
    be sorted by {!Relational.Tuple.compare} and contain every member of
    every package; [value] is called once per package.  The ranking
    orders by value descending, ties by {!Package.compare}. *)

val length : t -> int

val package : t -> int -> Package.t
(** The [i]-th package in canonical order. *)

val value : t -> int -> float
(** val() of the [i]-th package in canonical order. *)

val ranked : t -> int -> int
(** [ranked ix r] is the canonical position of the package ranked [r]
    (0 = best). *)

val count_rated : ?read:(unit -> unit) -> t -> strict:bool -> bound:float -> int
(** The number of packages rated [>= bound] ([> bound] with [~strict]),
    by binary search over the ranking; [read] is called once per entry
    the search reads. *)
