(** A global value-interning pool (hash-consing).

    Every distinct {!Value.t} that passes through the pool is assigned a
    dense integer id, stable for the lifetime of the process: the pool is
    append-only, so every value ever interned stays reachable.  Its one
    reader is the column view ({!Column}, built by [Relation.columns]),
    whose packed [int array] columns compare without re-inspecting string
    contents.  Relation indexes and counts are keyed by values ({!Vmap}),
    so no write, probe or plan interns anything.

    The pool is shared by all domains.  Reads ({!find}, {!value}) are
    lock-free against an immutable snapshot; only the slow path of {!id}
    (first sighting of a value) takes a mutex.  Ids handed to a domain are
    always resolvable by every other domain that received them through a
    synchronising operation (domain spawn/join, mutex). *)

val id : Value.t -> int
(** The id of a value, interning it on first sight.  Total and injective:
    [id a = id b] iff [Value.equal a b]. *)

val find : Value.t -> int option
(** The id of a value if it has already been interned, without interning:
    a value never interned cannot occur in any interned structure. *)

val value : int -> Value.t
(** The value behind an id.  Raises [Invalid_argument] on an id never
    returned by {!id}. *)

val pack : Tuple.t -> int array
(** The tuple's values, interned positionally. *)

val size : unit -> int
(** Number of distinct values interned so far (monotone; for tests and
    stats). *)
