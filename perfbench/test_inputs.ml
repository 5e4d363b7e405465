(* The benchmark's inputs are a function of the seed: the same seed gives
   byte-identical instance files, request sequence, mutation stream and
   PaQL corpus (hence the same printed digest), and another seed gives
   other inputs. *)

module I = Perfbench_inputs.Inputs
module Tuple = Relational.Tuple

let digests seed =
  [
    ("serve", I.serve_digest (I.serve ~seed));
    ("churn", I.churn_digest (I.churn ~seed));
    ("paql", I.paql_digest (I.paql ~seed));
  ]

let same_seed_same_inputs () =
  List.iter2
    (fun (what, a) (_, b) -> Alcotest.(check string) (what ^ " digest") a b)
    (digests 7) (digests 7)

let other_seed_other_inputs () =
  List.iter2
    (fun (what, a) (_, b) ->
      Alcotest.(check bool) (what ^ " digests differ") true (a <> b))
    (digests 7) (digests 8)

(* Every insert of the stream adds an absent tuple and every delete
   removes a present one, so no write is a no-op. *)
let churn_writes_change_the_database () =
  let c = I.churn ~seed:3 in
  let model = Hashtbl.create 16 in
  List.iter
    (fun (schema, tuples) ->
      List.iter
        (fun t -> Hashtbl.replace model (schema.Relational.Schema.name, Tuple.to_string t) ())
        tuples)
    c.I.relations;
  Array.iteri
    (fun step ((w : I.write), _) ->
      let key = (w.I.rel, Tuple.to_string w.I.tuple) in
      let present = Hashtbl.mem model key in
      if present = w.I.insert then
        Alcotest.failf "step %d: %s is a no-op" step (I.write_to_string w);
      if w.I.insert then Hashtbl.replace model key () else Hashtbl.remove model key)
    c.I.steps

let churn_queries_cover_the_languages () =
  List.iter
    (fun (name, lang, _) ->
      Alcotest.(check string)
        (name ^ " language")
        (Qlang.Query.lang_to_string lang)
        (Qlang.Query.lang_to_string (Qlang.Query.language (I.churn_query name))))
    I.churn_queries

let serve_requests_parse () =
  let s = I.serve ~seed:5 in
  Array.iter
    (fun line ->
      match Serve.Proto.parse_request line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" line e)
    s.I.requests

let paql_corpus_compiles () =
  let p = I.paql ~seed:5 in
  let dbs =
    Array.map
      (fun rows ->
        Relational.Database.of_relations
          [ Relational.Relation.of_list I.catalog_schema (Array.to_list (I.catalog_tuples rows)) ])
      p.I.catalogs
  in
  Array.iter
    (fun (shape, cat, text) ->
      match Core.Paql_compile.parse_and_compile dbs.(cat) text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" shape e)
    p.I.corpus

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick same_seed_same_inputs;
          Alcotest.test_case "other seed, other inputs" `Quick other_seed_other_inputs;
          Alcotest.test_case "churn writes change the database" `Quick
            churn_writes_change_the_database;
          Alcotest.test_case "churn queries cover the languages" `Quick
            churn_queries_cover_the_languages;
          Alcotest.test_case "serve requests parse" `Quick serve_requests_parse;
          Alcotest.test_case "paql corpus compiles" `Quick paql_corpus_compiles;
        ] );
    ]
