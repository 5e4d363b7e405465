(** Relations: finite sets of same-arity tuples under a schema. *)

type t

val empty : Schema.t -> t

val of_list : Schema.t -> Tuple.t list -> t
(** Deduplicates; raises [Invalid_argument] if a tuple's arity does not match
    the schema. *)

val of_int_rows : Schema.t -> int list list -> t
(** Convenience for gadget relations made of integers. *)

val schema : t -> Schema.t

val arity : t -> int

val cardinal : t -> int

val is_empty : t -> bool

val mem : Tuple.t -> t -> bool

val add : Tuple.t -> t -> t
(** Adding a tuple already present returns the relation unchanged (same
    caches, same revision).  Otherwise the by-column indexes and the
    per-column counts backing {!Stats} that the parent has already built —
    the structures plans read after a write — are maintained
    incrementally: the one-tuple delta is applied to the parent's
    persistent maps in O(log n) each (the parent's are shared, not
    copied), instead of a rebuild from scratch on next demand.  Structures the parent never
    built stay lazy, and so does the sorted array ({!to_array}), which
    writes never derive.  Maintenance probes the [Robust.Fault] site
    ["rel.maintain"]; an injected fault degrades to the lazy from-scratch
    rebuild (counter [rel.maintain_degraded]). *)

val remove : Tuple.t -> t -> t
(** Dual of {!add}: no-op (caches and revision kept) when the tuple is
    absent, incremental maintenance when present.  A column value whose
    occurrence count reaches zero has its key deleted (distinct counts
    always match a from-scratch rebuild), and an index bucket emptied by
    the removal deletes its key likewise. *)

val revision : t -> int
(** A process-unique identifier of the relation's tuple set: equal
    revisions imply equal tuple sets (the converse need not hold).  Fresh
    for every newly materialized set; preserved by {!rename} and by the
    no-op {!add}/{!remove}; and {e restored} by an add-then-remove (or
    remove-then-add) of the same tuple, so a net no-op round trip is
    recognized by revision-keyed caches instead of reading as a new
    database. *)

val to_list : t -> Tuple.t list
(** Tuples in increasing {!Tuple.compare} order. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Tuple.t -> unit) -> t -> unit

val filter : (Tuple.t -> bool) -> t -> t

val exists : (Tuple.t -> bool) -> t -> bool

val for_all : (Tuple.t -> bool) -> t -> bool

val union : t -> t -> t
(** Raises [Invalid_argument] on arity mismatch; keeps the first schema. *)

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool

val equal : t -> t -> bool
(** Set equality of the tuple sets (schema names are ignored). *)

val project : Schema.t -> int list -> t -> t
(** [project sch cols r] projects every tuple onto [cols] (in order, with
    duplication allowed) under the result schema [sch]. *)

val product : Schema.t -> t -> t -> t
(** Cartesian product under the result schema. *)

val rename : Schema.t -> t -> t
(** Same tuples under a new schema; raises [Invalid_argument] on arity
    mismatch. *)

val values : t -> Value.t list
(** All values appearing in the relation, deduplicated and sorted; a fold
    over the tuple set on every call. *)

(** {1 Fast paths}

    The structures below are built lazily, at most once {e published} per
    relation value, and cached.  Every operation that derives a relation
    with a different tuple set ([filter], set operations, ...) starts from
    an empty cache, so a stale index can never be observed; [add]/[remove]
    instead derive the indexes and counts their parent already built by
    applying the one-tuple delta to the parent's persistent maps (same
    visible answers, no stale state — the parent's maps are never
    mutated).  Fetching and
    publication synchronise on a per-relation mutex, but the build itself
    runs outside it: concurrent forcing from several domains is an
    idempotent double-force (each domain computes the same pure function
    of the immutable tuple set; the first completed build is published,
    later ones are discarded and their callers handed the published
    copy), never a torn publication and never a point where one domain's
    build blocks another's read of an already-published structure.  The
    returned structures are immutable, so they may be probed concurrently
    from several domains. *)

val to_array : t -> Tuple.t array
(** The tuples in increasing {!Tuple.compare} order, cached.  The array is
    shared: callers must not mutate it. *)

type index
(** A by-column index: a persistent map from a value of the column to the
    tuples holding it, in increasing tuple order. *)

val index_on : t -> int -> index
(** The index for a column (0-based), built on first request.  Raises
    [Invalid_argument] if the column is out of range. *)

val probe : index -> Value.t -> Tuple.t list
(** The tuples whose indexed column equals the value, in increasing tuple
    order; [[]] for values not present.  One map lookup comparing values,
    no allocation. *)

val select_eq : t -> int -> Value.t -> Tuple.t list
(** [probe (index_on r col) v]. *)

val indexed_cols : t -> int list
(** Columns whose index has been built, ascending (for tests/stats). *)

val columns : t -> Column.t
(** The column-major int-array view of the relation (row [r] = the [r]-th
    tuple in increasing {!Tuple.compare} order), built afresh on every
    call and not cached: no plan operator reads it (leaf scans read the
    tuple set and the by-column indexes). *)

val col_counts : t -> int Vmap.t array
(** Per-column occurrence counts (value -> number of rows, never [0]), the
    backing store for {!Stats}: distinct, min and max are the map's size
    and extreme keys.  Derived incrementally by {!add}/{!remove} when the
    parent has them, built otherwise from the column's values sorted in a
    transient array.  Immutable. *)

val has_counts : t -> bool
(** Whether the count maps are already present (built or incrementally
    derived) — for tests asserting incremental maintenance. *)

val has_index_on : t -> int -> bool
(** Whether the index on a column is present, without building it — for
    tests asserting what {!add}/{!remove} derived. *)

val counts_mem : t -> Value.t -> bool option
(** [counts_mem r v]: whether [v] occurs in [r], answered from the count
    maps without building anything — [None] when they are not present.
    Cheap active-domain membership for the mutation protocol. *)

val pp : Format.formatter -> t -> unit
(** Prints the schema and one tuple per line. *)
