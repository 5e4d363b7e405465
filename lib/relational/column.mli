(** Column-major relation storage over the interning pool.

    One [int array] of {!Intern} ids per column; row [r] corresponds to the
    [r]-th tuple in ascending {!Tuple.compare} order, i.e. the same row
    numbering as [Relation.to_array].  The tuple-set representation
    remains the source of truth.

    Per-column occurrence counts ([value id -> #rows]) are built in the
    same pass and back {!Stats}.  No plan operator reads this view: the
    plan interpreter scans the row store ([Relation.iter] and the
    by-column indexes), and writes never maintain the columns — a relation
    derived by [Relation.add]/[remove] rebuilds them on demand.

    All accessors are bounds-checked and raise [Failure "Column.fn: ..."]
    naming the relation, the offending index and the valid range — a
    miswired caller must surface as a diagnosis, not a bare
    [Invalid_argument "index out of bounds"]. *)

type t

val of_tuples : name:string -> arity:int -> Tuple.t array -> t
(** Build from tuples in ascending order (as returned by
    [Relation.to_array]); interns every value. *)

val rows : t -> int

val arity : t -> int

val ids : t -> int -> int array
(** The id array of a column.  Shared, not a copy: callers must not
    mutate it.  Raises [Failure "Column.ids: ..."] on an out-of-range
    column. *)

val id : t -> col:int -> row:int -> int
(** The interned id at a position; bounds-checked on both axes. *)

val value : t -> col:int -> row:int -> Value.t

val tuple : t -> int -> Tuple.t
(** Materializes one row (the lazy legacy view). *)

val distinct : t -> int -> int
(** Distinct values in a column (= [Hashtbl.length] of its count table). *)

val counts : t -> (int, int) Hashtbl.t array
(** The per-column occurrence counts built with the store.  Shared and
    immutable after publication: callers must copy before mutating. *)
