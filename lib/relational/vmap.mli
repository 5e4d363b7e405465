(** Persistent balanced maps keyed by {!Value.t}.

    The value-keyed structures a relation maintains across writes — its
    by-column indexes and per-column occurrence counts — are kept in these
    maps: a write derives the child's map from the parent's in O(log n)
    by path copying, never touching the parent's, and a lookup compares
    values directly (no interning).  Unlike [Map.Make], a map can be built
    from sorted keys in one linear pass that allocates only the final
    tree, and knows its size in O(1). *)

type 'a t

val empty : 'a t

val cardinal : 'a t -> int
(** The number of keys, in O(1). *)

val find_opt : Value.t -> 'a t -> 'a option

val find_or : default:'a -> Value.t -> 'a t -> 'a
(** The binding of the key, or [default] when absent, without allocating. *)

val mem : Value.t -> 'a t -> bool

val add : Value.t -> 'a -> 'a t -> 'a t
(** Binds the key, replacing any previous binding. *)

val update : Value.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update k f m] binds [k] to [f (find_opt k m)], or removes it when
    that is [None]. *)

val init_sorted : int -> (int -> Value.t) -> (int -> 'a) -> 'a t
(** [init_sorted n key value]: the map binding [key i] to [value i] for
    [0 <= i < n], whose keys must strictly increase with [i].  Built
    balanced in one pass that allocates only the tree (each [value i] is
    computed once).  Raises [Invalid_argument] when the keys do not
    strictly increase. *)

val min_key : 'a t -> Value.t option

val max_key : 'a t -> Value.t option

val bindings : 'a t -> (Value.t * 'a) list
(** In increasing key order. *)
