(* Tests for the relational substrate: values, tuples, schemas, relations,
   databases and the textual format. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Relation = Relational.Relation
module Database = Relational.Database

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- values ---------- *)

let test_value_order () =
  check "bool < int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  check "int < str" true (Value.compare (Value.Int 99) (Value.Str "a") < 0);
  check "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  check "str order" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  check "equal reflexive" true (Value.equal (Value.Str "x") (Value.Str "x"))

let test_value_round_trip () =
  let vals =
    [ Value.Int 42; Value.Int (-7); Value.Str "hello world"; Value.Str "";
      Value.Bool true; Value.Bool false; Value.Str "with \"quotes\"" ]
  in
  List.iter
    (fun v ->
      check "round trip" true (Value.equal v (Value.of_string (Value.to_string v))))
    vals

let test_value_of_string_bare () =
  check "bare word is Str" true
    (Value.equal (Value.of_string "nyc") (Value.Str "nyc"));
  check "int literal" true (Value.equal (Value.of_string " 12 ") (Value.Int 12));
  check "true" true (Value.equal (Value.of_string "true") (Value.Bool true))

let test_value_bits () =
  check "vtrue" true (Value.equal Value.vtrue (Value.Int 1));
  check "vfalse" true (Value.equal Value.vfalse (Value.Int 0));
  check "of_bit" true (Value.equal (Value.of_bit true) Value.vtrue);
  check_int "int_exn" 5 (Value.int_exn (Value.Int 5));
  Alcotest.check_raises "int_exn on Str" (Invalid_argument "Value.int_exn")
    (fun () -> ignore (Value.int_exn (Value.Str "x")))

(* ---------- tuples ---------- *)

let test_tuple_basics () =
  let t = Tuple.of_ints [ 1; 2; 3 ] in
  check_int "arity" 3 (Tuple.arity t);
  check "get" true (Value.equal (Tuple.get t 1) (Value.Int 2));
  Alcotest.check_raises "get out of range" (Invalid_argument "Tuple.get")
    (fun () -> ignore (Tuple.get t 3));
  let u = Tuple.concat t (Tuple.of_ints [ 4 ]) in
  check_int "concat arity" 4 (Tuple.arity u);
  check "project" true
    (Tuple.equal (Tuple.project [ 2; 0; 0 ] t) (Tuple.of_ints [ 3; 1; 1 ]))

let test_tuple_order () =
  check "lex order" true
    (Tuple.compare (Tuple.of_ints [ 1; 2 ]) (Tuple.of_ints [ 1; 3 ]) < 0);
  check "shorter first" true
    (Tuple.compare (Tuple.of_ints [ 9 ]) (Tuple.of_ints [ 0; 0 ]) < 0);
  check "equal" true (Tuple.equal (Tuple.of_ints [ 1 ]) (Tuple.of_ints [ 1 ]))

(* ---------- schemas ---------- *)

let test_schema () =
  let s = Schema.make "R" [ "a"; "b"; "c" ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "attr_index" 1 (Schema.attr_index s "b");
  check_str "qualified" "R.c" (Schema.qualified s 2);
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Schema.make: duplicate attribute in R") (fun () ->
      ignore (Schema.make "R" [ "a"; "a" ]))

(* ---------- relations ---------- *)

let sch2 = Schema.make "R" [ "a"; "b" ]
let r_123 = Relation.of_int_rows sch2 [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]

let test_relation_set_ops () =
  let r2 = Relation.of_int_rows sch2 [ [ 2; 3 ]; [ 9; 9 ] ] in
  check_int "union" 4 (Relation.cardinal (Relation.union r_123 r2));
  check_int "inter" 1 (Relation.cardinal (Relation.inter r_123 r2));
  check_int "diff" 2 (Relation.cardinal (Relation.diff r_123 r2));
  check "subset" true (Relation.subset (Relation.inter r_123 r2) r_123);
  check "mem" true (Relation.mem (Tuple.of_ints [ 1; 2 ]) r_123);
  check "not mem" false (Relation.mem (Tuple.of_ints [ 2; 2 ]) r_123)

let test_relation_dedup () =
  let r = Relation.of_int_rows sch2 [ [ 1; 1 ]; [ 1; 1 ] ] in
  check_int "dedup" 1 (Relation.cardinal r)

let test_relation_arity_check () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation: tuple arity 3 does not match schema R/2")
    (fun () -> ignore (Relation.of_list sch2 [ Tuple.of_ints [ 1; 2; 3 ] ]))

let test_relation_project_product () =
  let p =
    Relation.project (Schema.make "P" [ "a" ]) [ 0 ] r_123
  in
  check_int "project" 3 (Relation.cardinal p);
  let prod =
    Relation.product (Schema.make "X" [ "a"; "b"; "c"; "d" ]) r_123 r_123
  in
  check_int "product" 9 (Relation.cardinal prod)

let test_relation_values () =
  let vs = Relation.values r_123 in
  check_int "distinct values" 4 (List.length vs)

(* ---------- databases ---------- *)

let db = Database.of_relations [ r_123 ]

let test_database_basics () =
  check_int "size" 3 (Database.size db);
  check "mem" true (Database.mem db "R");
  check "find_opt none" true (Database.find_opt db "S" = None);
  check_int "adom" 4 (List.length (Database.active_domain db));
  let db2 = Database.insert_tuple "R" (Tuple.of_ints [ 7; 8 ]) db in
  check_int "insert" 4 (Database.size db2);
  check_int "original untouched" 3 (Database.size db);
  let db3 = Database.delete_tuple "R" (Tuple.of_ints [ 1; 2 ]) db2 in
  check_int "delete" 3 (Database.size db3);
  check "equal after noop" true
    (Database.equal db (Database.delete_tuple "R" (Tuple.of_ints [ 0; 0 ]) db))

let test_database_duplicate_rejected () =
  Alcotest.check_raises "duplicate relation"
    (Invalid_argument "Database.of_relations: duplicate relation R") (fun () ->
      ignore (Database.of_relations [ r_123; r_123 ]))

let test_database_round_trip () =
  let db =
    Database.of_relations
      [
        r_123;
        Relation.of_list
          (Schema.make "S" [ "x"; "y" ])
          [
            Tuple.of_list [ Value.Str "a b"; Value.Int 3 ];
            Tuple.of_list [ Value.Str "comma, inside"; Value.Bool true ];
          ];
        Relation.empty (Schema.make "T" [ "z" ]);
      ]
  in
  let db' = Database.of_string (Database.to_string db) in
  check "round trip" true (Database.equal db db')

let test_database_parse_errors () =
  (try
     ignore (Database.of_string "1,2\n");
     Alcotest.fail "expected failure"
   with Failure msg ->
     check "orphan tuple" true
       (String.length msg > 0
       && String.sub msg 0 18 = "Database.of_string"));
  try
    ignore (Database.of_string "R(a,b)\n1,2,3\n");
    Alcotest.fail "expected failure"
  with Failure _ -> ()

let test_database_parse_comments () =
  let db = Database.of_string "# comment\nR(a,b)\n1,2\n\n# more\n2,3\n" in
  check_int "parsed" 2 (Database.size db)

(* ---------- statistics ---------- *)

let test_stats () =
  let stats = Relational.Stats.of_relation r_123 in
  check_int "rows" 3 stats.Relational.Stats.rows;
  check_int "distinct col 0" 3 stats.Relational.Stats.columns.(0).Relational.Stats.distinct;
  check "min" true
    (stats.Relational.Stats.columns.(0).Relational.Stats.min_v = Some (Value.Int 1));
  check "max" true
    (stats.Relational.Stats.columns.(1).Relational.Stats.max_v = Some (Value.Int 4));
  Alcotest.(check (float 1e-9)) "eq selectivity" (1. /. 3.)
    (Relational.Stats.eq_selectivity stats 0);
  Alcotest.(check (float 1e-9)) "join estimate" 3.
    (Relational.Stats.join_size_estimate stats 0 stats 1);
  let empty_stats = Relational.Stats.of_relation (Relation.empty sch2) in
  Alcotest.(check (float 1e-9)) "empty selectivity" 0.
    (Relational.Stats.eq_selectivity empty_stats 0);
  check_int "per-db stats" 1 (List.length (Relational.Stats.of_database db))

(* ---------- concurrent cache forcing ---------- *)

(* Regression test for the derived-cache forcing discipline: several
   domains force every lazy structure of the same relation value at
   once.  The build runs outside the cache lock with first-completed-
   wins publication, so the race must be an idempotent double-force —
   same answers as a sequential run, one published array afterwards,
   never a torn cache or a deadlock. *)
let test_concurrent_forcing () =
  let sch = Schema.make "R" [ "a"; "b"; "c" ] in
  let rel =
    Relation.of_int_rows sch
      (List.init 200 (fun i -> [ i mod 17; i mod 5; i ]))
  in
  (* sequential baseline on an identical (but distinct) relation value *)
  let base =
    Relation.of_int_rows sch
      (List.init 200 (fun i -> [ i mod 17; i mod 5; i ]))
  in
  let expect_arr = Relation.to_array base in
  let expect_probe = Relation.select_eq base 0 (Value.Int 3) in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            (* stagger the entry points so different domains race
               different caches first *)
            let order =
              if d mod 2 = 0 then
                [ `Arr; `Idx; `Cols; `Counts ]
              else [ `Counts; `Cols; `Idx; `Arr ]
            in
            List.map
              (fun what ->
                match what with
                | `Arr -> Array.length (Relation.to_array rel)
                | `Idx -> List.length (Relation.select_eq rel 0 (Value.Int 3))
                | `Cols -> Relational.Column.rows (Relation.columns rel)
                | `Counts -> Array.length (Relation.col_counts rel))
              order))
  in
  let results = List.map Domain.join domains in
  List.iteri
    (fun d counts ->
      List.iter
        (fun n -> check ("domain " ^ string_of_int d ^ " nonzero") true (n > 0))
        counts)
    results;
  (* all domains agree with the sequential baseline *)
  check_int "array" (Array.length expect_arr) (Array.length (Relation.to_array rel));
  check "probe" true
    (List.map Tuple.to_list (Relation.select_eq rel 0 (Value.Int 3))
    = List.map Tuple.to_list expect_probe);
  (* exactly one array was published: later calls return it physically *)
  check "published once" true (Relation.to_array rel == Relation.to_array rel)

(* ---------- serialization edge cases ---------- *)

(* Strings whose printed form collides with the row / header / comment
   grammar.  Each must survive to_string/of_string unchanged. *)
let nasty_strings =
  [
    "line\nbreak"; "tab\there"; "a\"b\"c"; "\\"; "\\\""; "a,b"; "]";
    "[database]"; "R(a,b)"; "# not a comment"; "  padded  "; "\"";
    "trailing\\"; "\127\128\255";
  ]

let test_value_adversarial_round_trip () =
  List.iter
    (fun s ->
      let v = Value.Str s in
      check ("round trip " ^ String.escaped s) true
        (Value.equal v (Value.of_string (Value.to_string v))))
    nasty_strings

let test_value_of_string_rejects () =
  let rejects s =
    match Value.of_string s with
    | exception Invalid_argument _ -> ()
    | v ->
        Alcotest.failf "of_string %S should be rejected, got %s" s
          (Value.to_string v)
  in
  (* Trailing junk after a closing quote and unterminated quotes used to
     be silently mangled; both must now raise. *)
  rejects "\"a\"b";
  rejects "\"a\" \"b\"";
  rejects "\"unterminated";
  rejects "\""

let test_database_adversarial_round_trip () =
  let sch = Schema.make "S" [ "k"; "s" ] in
  let rows =
    List.mapi
      (fun i s -> Tuple.of_list [ Value.Int i; Value.Str s ])
      nasty_strings
  in
  let db = Database.of_relations [ Relation.of_list sch rows ] in
  check "adversarial db round trips" true
    (Database.equal db (Database.of_string (Database.to_string db)))

let test_database_to_string_guard () =
  (* Relation / attribute names are emitted verbatim into header lines, so
     one that collides with the grammar must be refused loudly instead of
     producing a file that parses back differently. *)
  let rejects name attrs =
    let db =
      Database.of_relations
        [ Relation.of_list (Schema.make name attrs) [ Tuple.of_ints [ 1 ] ] ]
    in
    match Database.to_string db with
    | exception Invalid_argument msg ->
        check "names the offender" true
          (String.length msg > 0
          && String.sub msg 0 18 = "Database.to_string")
    | _ -> Alcotest.failf "to_string should reject %s(%s)" name
             (String.concat ";" attrs)
  in
  rejects "bad,name" [ "a" ];
  rejects "#lead" [ "a" ];
  rejects "[sec" [ "a" ];
  rejects "multi\nline" [ "a" ];
  rejects "R" [ "a(b" ]

let test_database_unterminated_row_quote () =
  match Database.of_string "R(a)\n\"open\n" with
  | exception Failure msg ->
      check "mentions the line" true
        (String.length msg > 0
        && String.sub msg 0 18 = "Database.of_string")
  | _ -> Alcotest.fail "unterminated quote should be rejected"

let test_stats_bounds () =
  let stats = Relational.Stats.of_relation r_123 in
  let expect_msg f =
    match f () with
    | exception Failure msg ->
        check "names relation and column" true
          (String.sub msg 0 6 = "Stats:"
          && String.length msg > 0
          (* the diagnosis must say which relation and which column *)
          && String.index_opt msg 'R' <> None)
    | _ -> Alcotest.fail "out-of-range column should be rejected"
  in
  expect_msg (fun () -> Relational.Stats.eq_selectivity stats 7);
  expect_msg (fun () -> Relational.Stats.eq_selectivity stats (-1));
  expect_msg (fun () ->
      Relational.Stats.join_size_estimate stats 0 stats 9);
  Alcotest.check_raises "exact message"
    (Failure "Stats: relation R has no column 7 (arity 2)") (fun () ->
      ignore (Relational.Stats.eq_selectivity stats 7))

(* ---------- qcheck properties ---------- *)

let tuple_gen =
  QCheck.Gen.(list_size (int_bound 2 >|= fun n -> n + 1) (int_bound 5))

let relation_of l = Relation.of_int_rows sch2 (List.map (fun (a, b) -> [ a; b ]) l)

let pairs_gen = QCheck.(small_list (pair (int_bound 5) (int_bound 5)))

let prop_union_commutes =
  QCheck.Test.make ~name:"relation union commutes" ~count:100
    QCheck.(pair pairs_gen pairs_gen)
    (fun (xs, ys) ->
      Relation.equal
        (Relation.union (relation_of xs) (relation_of ys))
        (Relation.union (relation_of ys) (relation_of xs)))

let prop_diff_inter =
  QCheck.Test.make ~name:"diff + inter partitions" ~count:100
    QCheck.(pair pairs_gen pairs_gen)
    (fun (xs, ys) ->
      let a = relation_of xs and b = relation_of ys in
      Relation.cardinal (Relation.diff a b) + Relation.cardinal (Relation.inter a b)
      = Relation.cardinal a)

let prop_tuple_compare_total =
  QCheck.Test.make ~name:"tuple compare total order" ~count:100
    QCheck.(triple (list_of_size (QCheck.Gen.return 2) (int_bound 4))
              (list_of_size (QCheck.Gen.return 2) (int_bound 4))
              (list_of_size (QCheck.Gen.return 2) (int_bound 4)))
    (fun (a, b, c) ->
      let ta = Tuple.of_ints a and tb = Tuple.of_ints b and tc = Tuple.of_ints c in
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (Tuple.compare ta tb) = -sgn (Tuple.compare tb ta)
      (* transitivity of <= *)
      && (not (Tuple.compare ta tb <= 0 && Tuple.compare tb tc <= 0)
         || Tuple.compare ta tc <= 0))

let prop_db_round_trip =
  QCheck.Test.make ~name:"database text round trip" ~count:50 pairs_gen
    (fun xs ->
      let db = Database.of_relations [ relation_of xs ] in
      Database.equal db (Database.of_string (Database.to_string db)))

(* Strings over the characters most likely to break the row grammar. *)
let hostile_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_bound 8)
    (QCheck.Gen.oneofl
       [ 'a'; 'z'; '"'; '\\'; ','; '\n'; '\r'; '\t'; '#'; '['; ']'; '('; ')';
         ' ' ])

let prop_db_round_trip_hostile =
  QCheck.Test.make ~name:"database round trip with hostile strings" ~count:200
    QCheck.(small_list hostile_string)
    (fun ss ->
      let sch = Schema.make "S" [ "k"; "s" ] in
      let rows =
        List.mapi
          (fun i s -> Tuple.of_list [ Value.Int i; Value.Str s ])
          ss
      in
      let db = Database.of_relations [ Relation.of_list sch rows ] in
      Database.equal db (Database.of_string (Database.to_string db)))

let prop_value_round_trip_hostile =
  QCheck.Test.make ~name:"value round trip with hostile strings" ~count:500
    hostile_string
    (fun s ->
      let v = Value.Str s in
      Value.equal v (Value.of_string (Value.to_string v)))

(* The value-keyed map against the standard library's, along random
   chains of [update] (inserting, replacing and removing), from a map
   built by [init_sorted]: same bindings in key order, the separately
   kept size, and the extreme keys. *)
module Smap = Map.Make (Value)
module Vmap = Relational.Vmap

let prop_vmap_model =
  QCheck.Test.make ~name:"Vmap: init_sorted + update chains = Map.Make" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let value () =
        let k = Random.State.int rng 40 in
        match Random.State.int rng 3 with
        | 0 -> Value.Int k
        | 1 -> Value.Str (string_of_int k)
        | _ -> Value.Bool (k mod 2 = 0)
      in
      let init =
        Smap.of_seq (Seq.init (Random.State.int rng 30) (fun _ -> (value (), Random.State.int rng 5)))
      in
      let keys = Array.of_list (Smap.bindings init) in
      let v0 = Vmap.init_sorted (Array.length keys) (fun i -> fst keys.(i)) (fun i -> snd keys.(i)) in
      let agree v s =
        Vmap.bindings v = Smap.bindings s
        && Vmap.cardinal v = Smap.cardinal s
        && Vmap.min_key v = Option.map fst (Smap.min_binding_opt s)
        && Vmap.max_key v = Option.map fst (Smap.max_binding_opt s)
      in
      let rec go v s n =
        n = 0
        ||
        let k = value () in
        let f = function
          | Some x when Random.State.int rng 3 = 0 -> if x > 0 then Some (x - 1) else None
          | _ -> if Random.State.bool rng then Some (Random.State.int rng 5) else None
        in
        let fk = f (Vmap.find_opt k v) in
        let v = Vmap.update k (fun _ -> fk) v and s = Smap.update k (fun _ -> fk) s in
        agree v s
        && Vmap.find_or ~default:(-1) k v = Option.value ~default:(-1) (Smap.find_opt k s)
        && go v s (n - 1)
      in
      agree v0 init && go v0 init 60)

let () =
  ignore tuple_gen;
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "total order" `Quick test_value_order;
          Alcotest.test_case "to/of_string round trip" `Quick test_value_round_trip;
          Alcotest.test_case "of_string bare words" `Quick test_value_of_string_bare;
          Alcotest.test_case "boolean helpers" `Quick test_value_bits;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "ordering" `Quick test_tuple_order;
        ] );
      ("schema", [ Alcotest.test_case "basics" `Quick test_schema ]);
      ( "relation",
        [
          Alcotest.test_case "set operations" `Quick test_relation_set_ops;
          Alcotest.test_case "deduplication" `Quick test_relation_dedup;
          Alcotest.test_case "arity checking" `Quick test_relation_arity_check;
          Alcotest.test_case "project and product" `Quick test_relation_project_product;
          Alcotest.test_case "values" `Quick test_relation_values;
        ] );
      ( "database",
        [
          Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "duplicate rejected" `Quick test_database_duplicate_rejected;
          Alcotest.test_case "text round trip" `Quick test_database_round_trip;
          Alcotest.test_case "parse errors" `Quick test_database_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick test_database_parse_comments;
        ] );
      ( "serialization-edges",
        [
          Alcotest.test_case "adversarial value round trip" `Quick
            test_value_adversarial_round_trip;
          Alcotest.test_case "of_string rejects ambiguity" `Quick
            test_value_of_string_rejects;
          Alcotest.test_case "adversarial database round trip" `Quick
            test_database_adversarial_round_trip;
          Alcotest.test_case "to_string refuses grammar collisions" `Quick
            test_database_to_string_guard;
          Alcotest.test_case "unterminated row quote" `Quick
            test_database_unterminated_row_quote;
        ] );
      ( "stats",
        [
          Alcotest.test_case "statistics" `Quick test_stats;
          Alcotest.test_case "column bounds errors" `Quick test_stats_bounds;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent cache forcing" `Quick
            test_concurrent_forcing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_union_commutes;
            prop_diff_inter;
            prop_tuple_compare_total;
            prop_db_round_trip;
            prop_db_round_trip_hostile;
            prop_value_round_trip_hostile;
            prop_vmap_model;
          ] );
    ]
