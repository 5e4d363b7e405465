(** Generic random databases for property tests and scaling benchmarks. *)

val relation :
  Random.State.t ->
  Relational.Schema.t ->
  rows:int ->
  domain:int ->
  Relational.Relation.t
(** Random integer tuples with values drawn from [0..domain-1] (duplicates
    collapse, so the relation may hold fewer than [rows] tuples). *)

val database :
  Random.State.t ->
  specs:(string * int) list ->
  rows:int ->
  domain:int ->
  Relational.Database.t
(** One relation per [(name, arity)] spec. *)

(** {2 Streaming generators (target cardinality, linear cost)}

    For 10⁵–10⁶-tuple scaling runs: tuples are generated in one linear
    pass and the relation is constructed once — no per-tuple
    [Relation.add] (quadratic index maintenance over the load) and no
    rejection sampling for distinctness.  A key column carrying the
    stream index makes every tuple distinct by construction, so the
    requested cardinality is hit {e exactly}. *)

val relation_stream :
  Relational.Schema.t ->
  cardinality:int ->
  (int -> Relational.Tuple.t) ->
  Relational.Relation.t
(** [relation_stream schema ~cardinality gen] builds the relation of
    [gen 0 .. gen (cardinality-1)].  The generator must yield distinct
    tuples (put the index in a column) for the cardinality to be exact. *)

val graph : Random.State.t -> nodes:int -> edges:int -> Relational.Database.t
(** A random directed graph in relation [E(src, dst)]. *)

val random_cq :
  Random.State.t ->
  Relational.Database.t ->
  natoms:int ->
  nvars:int ->
  Qlang.Ast.fo_query
(** A random conjunctive query over the database's relations: atoms with
    variables drawn from a pool of [nvars] names (plus occasional constants
    from 0..3), used to cross-test the evaluators. *)
