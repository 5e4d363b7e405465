module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let relation rng schema ~rows ~domain =
  let arity = Schema.arity schema in
  Relation.of_list schema
    (List.init rows (fun _ ->
         Array.init arity (fun _ -> Relational.Value.Int (Random.State.int rng domain))))

let database rng ~specs ~rows ~domain =
  Database.of_relations
    (List.map
       (fun (name, arity) ->
         relation rng
           (Schema.make name (List.init arity (fun i -> "a" ^ string_of_int i)))
           ~rows ~domain)
       specs)

(* ------------------------------------------------------------------ *)
(* Streaming generators for scaling benchmarks (10^5..10^6 tuples).

   Two pitfalls this path avoids: building by repeated [Relation.add]
   pays the incremental index-maintenance cost per tuple (quadratic over
   the load), and rejection-sampling distinct random rows degenerates as
   the domain fills up.  Instead each generated tuple carries its stream
   index in a key column — every tuple is distinct by construction, so
   the target cardinality is hit exactly — and the relation is built in
   one [of_list] pass. *)
(* ------------------------------------------------------------------ *)

let relation_stream schema ~cardinality gen =
  if cardinality < 0 then
    invalid_arg "Random_db.relation_stream: negative cardinality";
  let rec collect i acc =
    if i >= cardinality then List.rev acc else collect (i + 1) (gen i :: acc)
  in
  Relation.of_list schema (collect 0 [])

let graph rng ~nodes ~edges =
  let sch = Schema.make "E" [ "src"; "dst" ] in
  Database.of_relations
    [
      Relation.of_list sch
        (List.init edges (fun _ ->
             Relational.Tuple.of_ints
               [ Random.State.int rng nodes; Random.State.int rng nodes ]));
    ]

let random_cq rng db ~natoms ~nvars =
  let rels = Database.relations db in
  if rels = [] then invalid_arg "Random_db.random_cq: empty database";
  let rels = Array.of_list rels in
  let var k = "v" ^ string_of_int k in
  let term () =
    if Random.State.int rng 10 < 8 then
      Qlang.Ast.Var (var (Random.State.int rng nvars))
    else Qlang.Ast.Const (Relational.Value.Int (Random.State.int rng 4))
  in
  let atoms =
    List.init natoms (fun _ ->
        let rel = rels.(Random.State.int rng (Array.length rels)) in
        let sch = Relation.schema rel in
        Qlang.Ast.Atom
          {
            Qlang.Ast.rel = sch.Schema.name;
            args = List.init (Schema.arity sch) (fun _ -> term ());
          })
  in
  (* Head: the variables of the first atom (ensures safety-ish heads). *)
  let head =
    List.sort_uniq String.compare
      (List.concat_map
         (function
           | Qlang.Ast.Atom a ->
               List.concat_map Qlang.Ast.term_vars a.Qlang.Ast.args
           | _ -> [])
         (match atoms with [] -> [] | a :: _ -> [ a ]))
  in
  let all_vars =
    List.sort_uniq String.compare
      (List.concat_map
         (function
           | Qlang.Ast.Atom a ->
               List.concat_map Qlang.Ast.term_vars a.Qlang.Ast.args
           | _ -> [])
         atoms)
  in
  let bound = List.filter (fun v -> not (List.mem v head)) all_vars in
  {
    Qlang.Ast.name = "Q";
    head;
    body = Qlang.Ast.exists bound (Qlang.Ast.conj atoms);
  }
