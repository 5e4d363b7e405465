(* Tests for the query languages: AST utilities, fragment classification,
   the FO evaluator, the CQ join planner, the Datalog engine, the parser and
   the pretty-printer. *)

open Qlang.Ast
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let r = Relation.of_int_rows (Schema.make "R" [ "a"; "b" ]) [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]
let s = Relation.of_int_rows (Schema.make "S" [ "a"; "b" ]) [ [ 2; 10 ]; [ 3; 20 ] ]
let u = Relation.of_int_rows (Schema.make "U" [ "a" ]) [ [ 1 ]; [ 2 ] ]
let db = Database.of_relations [ r; s; u ]

let q str = Qlang.Parser.parse_query str
let f str = Qlang.Parser.parse_formula str

(* ---------- ast utilities ---------- *)

let test_free_vars () =
  Alcotest.(check (list string))
    "free vars" [ "x"; "z" ]
    (free_vars (f "exists y. R(x, y) & S(y, z)"));
  Alcotest.(check (list string))
    "forall binds" [ "x" ]
    (free_vars (f "forall y. R(x, y)"));
  Alcotest.(check (list string))
    "not keeps" [ "x" ] (free_vars (f "not U(x)"))

let test_conjuncts_disjuncts () =
  check_int "conjuncts" 3 (List.length (conjuncts (f "U(x) & U(y) & U(z)")));
  check_int "disjuncts" 3 (List.length (disjuncts (f "U(x) | U(y) | U(z)")));
  check "conj of empty" true (equal_formula (conj []) True);
  check "disj of empty" true (equal_formula (disj []) False)

let test_subst () =
  let g = subst [ ("x", Const (Value.Int 7)) ] (f "R(x, y) & exists x. U(x)") in
  check "substituted outside binder only" true
    (equal_formula g (f "R(7, y) & exists x. U(x)"))

let test_freshen () =
  let g = freshen (f "(exists y. R(x, y)) & (exists y. S(x, y))") in
  (* After freshening, flattening is sound: the two y's must differ. *)
  let rec binders acc = function
    | Exists (vs, body) -> binders (vs @ acc) body
    | And (a, b) -> binders (binders acc a) b
    | _ -> acc
  in
  let bs = binders [] g in
  check_int "two binders" 2 (List.length bs);
  check "distinct" true (List.length (List.sort_uniq compare bs) = 2)

let test_rename_rels () =
  check "rename" true
    (equal_formula
       (rename_rels [ ("R", "R2") ] (f "R(x, y) & S(x, y)"))
       (f "R2(x, y) & S(x, y)"))

let test_cmp_semantics () =
  check "eq" true (eval_cmp Eq (Value.Int 1) (Value.Int 1));
  check "neq" true (eval_cmp Neq (Value.Int 1) (Value.Int 2));
  check "lt strings" true (eval_cmp Lt (Value.Str "a") (Value.Str "b"));
  check "negate" true
    (List.for_all
       (fun op ->
         List.for_all
           (fun (a, b) ->
             eval_cmp op a b = not (eval_cmp (negate_cmp op) a b))
           [ (Value.Int 1, Value.Int 2); (Value.Int 2, Value.Int 2);
             (Value.Int 3, Value.Int 2) ])
       [ Eq; Neq; Lt; Le; Gt; Ge ])

(* ---------- fragment classification ---------- *)

let test_fragments () =
  let frag str = Qlang.Fragment.classify (f str) in
  Alcotest.(check string) "sp" "SP"
    (Qlang.Fragment.to_string (frag "exists y. R(x, y) & x < 3"));
  Alcotest.(check string) "cq" "CQ"
    (Qlang.Fragment.to_string (frag "R(x, y) & S(y, z)"));
  Alcotest.(check string) "ucq" "UCQ"
    (Qlang.Fragment.to_string (frag "R(x, y) | S(x, y)"));
  Alcotest.(check string) "ucq under exists" "UCQ"
    (Qlang.Fragment.to_string (frag "exists y. (R(x, y) | S(x, y))"));
  Alcotest.(check string) "efo+" "∃FO+"
    (Qlang.Fragment.to_string (frag "R(x, y) & (S(x, x) | U(x)) & U(y)"));
  Alcotest.(check string) "fo (not)" "FO"
    (Qlang.Fragment.to_string (frag "R(x, y) & not U(x)"));
  Alcotest.(check string) "fo (forall)" "FO"
    (Qlang.Fragment.to_string (frag "forall y. R(x, y)"));
  check "leq chain" true
    Qlang.Fragment.(leq Sp Cq && leq Cq Ucq && leq Ucq Efo_plus && leq Efo_plus Fo);
  check "not leq" false Qlang.Fragment.(leq Fo Cq)

let test_fragment_edges () =
  let frag str = Qlang.Fragment.to_string (Qlang.Fragment.classify (f str)) in
  (* ∃ distributes over ∨, so it stays UCQ rather than jumping to ∃FO⁺ *)
  Alcotest.(check string) "exists over or" "UCQ"
    (frag "exists x. (R(x, y) | exists z. S(y, z))");
  Alcotest.(check string) "or under and is ∃FO+" "∃FO+"
    (frag "U(y) & (R(x, y) | S(x, y))");
  Alcotest.(check string) "forall is FO" "FO" (frag "forall x. R(x, y)");
  (* double negation is not simplified away: still FO syntactically *)
  Alcotest.(check string) "not not" "FO" (frag "not (not U(x))");
  (* a single atom with several built-ins, including Dist, stays SP *)
  Alcotest.(check string) "sp with builtins" "SP"
    (frag "exists y. R(x, y) & x < 3 & y != 2 & dist[geo](x, y) <= 1.5");
  Alcotest.(check string) "dist alone is not sp" "CQ" (frag "dist[geo](x, y) <= 1.5");
  (* two relation atoms break the single-scan shape *)
  Alcotest.(check string) "two atoms" "CQ" (frag "exists y. R(x, y) & R(y, x)");
  (* False is a UCQ (the empty union) but not a CQ *)
  Alcotest.(check string) "false" "UCQ"
    (Qlang.Fragment.to_string (Qlang.Fragment.classify False))

(* Classification is monotone under ∧/∨ composition: combining two
   formulas never lands below either operand's fragment.  (This needs each
   operand to contain a relation atom — [True ∧ R(x,y)] is SP while [True]
   alone is a CQ.) *)
let gen_atomful_formula =
  let open QCheck.Gen in
  let base =
    oneofl
      [
        f "R(x, y)";
        f "S(y, z)";
        f "U(x)";
        f "exists y. R(x, y) & x < 3";
        f "R(x, y) & S(y, z)";
        f "R(x, y) | U(x)";
        f "not U(x)";
        f "forall z. S(y, z)";
      ]
  in
  let rec go n =
    if n <= 0 then base
    else
      frequency
        [
          (3, base);
          (2, map2 (fun a b -> And (a, b)) (go (n - 1)) (go (n - 1)));
          (2, map2 (fun a b -> Or (a, b)) (go (n - 1)) (go (n - 1)));
          (1, map (fun a -> Exists ([ "y" ], a)) (go (n - 1)));
          (1, map (fun a -> And (a, Cmp (Lt, Var "x", Const (Value.Int 3)))) (go (n - 1)));
        ]
  in
  go 3

let prop_classify_monotone =
  QCheck.Test.make ~name:"fragment classification monotone under ∧/∨" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_atomful_formula gen_atomful_formula))
    (fun (a, b) ->
      let open Qlang.Fragment in
      let ca = classify a and cb = classify b in
      let up = classify (And (a, b)) and down = classify (Or (a, b)) in
      leq ca up && leq cb up && leq ca down && leq cb down)

let test_query_language () =
  let lang qq = Qlang.Query.lang_to_string (Qlang.Query.language qq) in
  Alcotest.(check string) "identity" "SP" (lang (Qlang.Query.Identity "R"));
  Alcotest.(check string) "empty" "SP" (lang Qlang.Query.Empty_query);
  Alcotest.(check string) "cq" "CQ"
    (lang (Qlang.Query.Fo (q "Q(x) := R(x, y) & S(y, z)")));
  let tc = Qlang.Parser.parse_program "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z)." in
  Alcotest.(check string) "datalog" "DATALOG" (lang (Qlang.Query.Dl tc));
  let nr = Qlang.Parser.parse_program "P(x) :- E(x,y). Q2(x) :- P(x). ?- Q2." in
  Alcotest.(check string) "datalognr" "DATALOGnr" (lang (Qlang.Query.Dl nr))

(* ---------- FO evaluation ---------- *)

let eval_q str = Oracle.eval_query db (q str)

let test_eval_join () =
  let ans = eval_q "Q(x, z) := exists y. R(x, y) & S(y, z)" in
  check "join" true
    (Relation.equal ans
       (Relation.of_int_rows (Schema.make "Q" [ "x"; "z" ]) [ [ 1; 10 ]; [ 2; 20 ] ]))

let test_eval_selection_constants () =
  let ans = eval_q "Q(y) := R(2, y)" in
  check "constant selection" true
    (Relation.equal ans (Relation.of_int_rows (Schema.make "Q" [ "y" ]) [ [ 3 ] ]))

let test_eval_repeated_vars () =
  let rr = Relation.of_int_rows (Schema.make "W" [ "a"; "b" ]) [ [ 1; 1 ]; [ 1; 2 ] ] in
  let db = Database.add rr db in
  let ans = Oracle.eval_query db (q "Q(x) := W(x, x)") in
  check "repeated vars" true
    (Relation.equal ans (Relation.of_int_rows (Schema.make "Q" [ "x" ]) [ [ 1 ] ]))

let test_eval_negation () =
  (* pairs over adom with x < y not in R *)
  let ans = eval_q "Q(x, y) := not R(x, y) & x < y" in
  (* adom = {1,2,3,4,10,20}: 15 ordered pairs minus 3 R-pairs *)
  check_int "negation" 12 (Relation.cardinal ans)

let test_eval_forall () =
  check "forall holds" true
    (Oracle.holds db (f "forall x. (exists y. R(x, y)) -> x < 4"));
  check "forall fails" false
    (Oracle.holds db (f "forall x. exists y. R(x, y)"))

let test_eval_disjunction_padding () =
  (* Or with different free variables pads over the active domain. *)
  let ans = eval_q "Q(x, y) := U(x) & (S(x, y) | U(y))" in
  (* U(1): y ∈ {1,2} via U(y); U(2): S(2,10) plus y ∈ {1,2} *)
  check_int "or padding" 5 (Relation.cardinal ans)

let test_eval_true_false () =
  check "true holds" true (Oracle.holds db True);
  check "false fails" false (Oracle.holds db False)

let test_eval_head_constants_adom () =
  (* A head variable bound only by a comparison with a constant: the
     constant is in adom(Q, D). *)
  let ans = eval_q "Q(x) := x = 99" in
  check "constant head" true
    (Relation.equal ans (Relation.of_int_rows (Schema.make "Q" [ "x" ]) [ [ 99 ] ]))

let test_eval_unknown_relation () =
  (try
     ignore (eval_q "Q(x) := Zorp(x)");
     Alcotest.fail "expected failure"
   with Failure msg -> check "unknown relation" true (msg = "Oracle: unknown relation Zorp"))

let test_eval_dist () =
  let dist = Qlang.Dist.add "num" Qlang.Dist.numeric Qlang.Dist.empty in
  let query = q "Q(x) := U(x) & dist[num](x, 1) <= 1" in
  let ans = Oracle.eval_query ~dist db query in
  check_int "dist atom" 2 (Relation.cardinal ans)

let test_eval_nullary () =
  let ans = eval_q "Q() := exists x, y. R(x, y) & x > 2" in
  check_int "nullary true" 1 (Relation.cardinal ans);
  let ans2 = eval_q "Q() := exists x, y. R(x, y) & x > 9" in
  check_int "nullary false" 0 (Relation.cardinal ans2)

(* ---------- CQ planner (the plan route) vs FO evaluator ---------- *)

let plan_eval db query = Qlang.Query.eval db (Qlang.Query.Fo query)

let test_cq_matches_fo_hand () =
  List.iter
    (fun str ->
      let query = q str in
      check ("cq=fo: " ^ str) true
        (Relation.equal (Oracle.eval_query db query) (plan_eval db query)))
    [
      "Q(x, z) := exists y. R(x, y) & S(y, z)";
      "Q(x) := R(x, y) & x != y & y <= 3";
      "Q(x, y) := R(x, y) | S(x, y)";
      "Q(x) := exists y. (R(x, y) | S(x, y))";
      "Q(x) := U(x) & x = 2";
      "Q(x, w) := U(x) & w = 0";
      "Q(x) := (exists y. R(x, y)) & (exists y. S(x, y))";
    ]

let prop_cq_matches_fo =
  let rng_gen = QCheck.Gen.(int_bound 1_000_000) in
  QCheck.Test.make ~name:"random CQ: planner = generic evaluator" ~count:60
    (QCheck.make rng_gen) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng
          ~specs:[ ("R", 2); ("S", 2); ("T", 1) ]
          ~rows:6 ~domain:4
      in
      let query = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4 in
      Relation.equal (Oracle.eval_query db query) (plan_eval db query))

(* ---------- Datalog ---------- *)

let graph_db edges =
  Database.of_relations
    [ Relation.of_int_rows (Schema.make "E" [ "s"; "d" ]) edges ]

let tc = Qlang.Parser.parse_program "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z). ?- T."

let reach_reference edges =
  (* Floyd–Warshall-style reference reachability. *)
  let nodes = List.sort_uniq compare (List.concat edges) in
  let reach = Hashtbl.create 16 in
  List.iter (function [ a; b ] -> Hashtbl.replace reach (a, b) () | _ -> ()) edges;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            List.iter
              (fun c ->
                if
                  Hashtbl.mem reach (a, b) && Hashtbl.mem reach (b, c)
                  && not (Hashtbl.mem reach (a, c))
                then begin
                  Hashtbl.replace reach (a, c) ();
                  changed := true
                end)
              nodes)
          nodes)
      nodes
  done;
  Hashtbl.fold (fun (a, b) () acc -> [ a; b ] :: acc) reach []

let test_datalog_tc () =
  let edges = [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ]; [ 4; 5 ] ] in
  let db = graph_db edges in
  let expected =
    Relation.of_int_rows (Schema.make "T" [ "a0"; "a1" ]) (reach_reference edges)
  in
  check "naive TC" true (Relation.equal (Oracle.eval_program db tc) expected);
  check "plan fixpoint TC" true
    (Relation.equal (Qlang.Query.eval db (Qlang.Query.Dl tc)) expected)

let test_datalog_builtins () =
  let p =
    Qlang.Parser.parse_program
      "Small(x, y) :- E(x, y), x < y. ?- Small."
  in
  let db = graph_db [ [ 1; 2 ]; [ 3; 2 ]; [ 2; 2 ] ] in
  check_int "builtin filter" 1 (Relation.cardinal (Oracle.eval_program db p))

let test_datalog_facts_and_constants () =
  let p =
    Qlang.Parser.parse_program
      "Start(1). Reach(x) :- Start(x). Reach(y) :- Reach(x), E(x, y). ?- Reach."
  in
  let db = graph_db [ [ 1; 2 ]; [ 2; 3 ]; [ 5; 6 ] ] in
  check_int "reachable from 1" 3 (Relation.cardinal (Oracle.eval_program db p))

let test_datalog_check_errors () =
  let db = graph_db [ [ 1; 2 ] ] in
  let bad_safety =
    Qlang.Parser.parse_program "P(x, y) :- E(x, x). ?- P."
  in
  check "unsafe rejected" true
    (match Qlang.Datalog.check db bad_safety with Error _ -> true | Ok () -> false);
  let bad_arity = Qlang.Parser.parse_program "P(x) :- E(x). ?- P." in
  check "arity mismatch rejected" true
    (match Qlang.Datalog.check db bad_arity with Error _ -> true | Ok () -> false);
  let bad_goal = Qlang.Parser.parse_program "P(x) :- E(x, y). ?- Zorp." in
  check "unknown goal rejected" true
    (match Qlang.Datalog.check db bad_goal with Error _ -> true | Ok () -> false);
  let collision = Qlang.Parser.parse_program "E(x, y) :- E(y, x). ?- E." in
  check "EDB collision rejected" true
    (match Qlang.Datalog.check db collision with Error _ -> true | Ok () -> false)

let test_datalog_nonrecursive_detection () =
  check "tc recursive" false (Qlang.Datalog.is_nonrecursive tc);
  let nr =
    Qlang.Parser.parse_program "A(x) :- E(x, y). B(x) :- A(x). ?- B."
  in
  check "layered nonrecursive" true (Qlang.Datalog.is_nonrecursive nr);
  let mutual =
    Qlang.Parser.parse_program "A(x) :- B(x). B(x) :- A(x). B(x) :- E(x, y). ?- A."
  in
  check "mutual recursion" false (Qlang.Datalog.is_nonrecursive mutual)

let test_datalog_vs_fo_on_bounded_path () =
  (* Paths of length <= 2 expressible both ways. *)
  let p =
    Qlang.Parser.parse_program
      "P(x, y) :- E(x, y). P(x, z) :- E(x, y), E(y, z). ?- P."
  in
  let fo = q "Q(x, z) := E(x, z) | (exists y. E(x, y) & E(y, z))" in
  let db = graph_db [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 1; 3 ] ] in
  let a = Oracle.eval_program db p in
  let b = Oracle.eval_query db fo in
  check "datalog = FO on bounded paths" true
    (Relation.equal
       (Relation.rename (Schema.make "X" [ "a"; "b" ]) a)
       (Relation.rename (Schema.make "X" [ "a"; "b" ]) b))

(* ---------- parser / pretty round trips ---------- *)

let test_parse_pretty_round_trip () =
  List.iter
    (fun str ->
      let query = q str in
      let printed = Qlang.Pretty.query_to_string query in
      let reparsed = Qlang.Parser.parse_query printed in
      check ("round trip: " ^ str) true
        (equal_formula query.body reparsed.body && query.head = reparsed.head))
    [
      "Q(x, z) := exists y. R(x, y) & S(y, z)";
      "Q(x) := R(x, y) & (S(x, x) | U(y)) & x != y";
      "Q(x) := not (U(x) | U(x))";
      "Q(x) := forall y. R(x, y) -> x < y";
      "Q(x) := U(x) & dist[city](x, \"nyc\") <= 15";
      "Q(x) := R(x, -3) & x >= -3";
      "Q() := true & U(1)";
    ]

let test_parse_program_round_trip () =
  let src = "T(x, y) :- E(x, y).\nT(x, z) :- E(x, y), T(y, z), x < 5.\n?- T." in
  let p = Qlang.Parser.parse_program src in
  let p2 = Qlang.Parser.parse_program (Qlang.Pretty.program_to_string p) in
  check "program round trip" true (p = p2)

let test_parse_errors () =
  List.iter
    (fun str ->
      try
        ignore (Qlang.Parser.parse_query str);
        Alcotest.failf "expected parse error for %s" str
      with Qlang.Parser.Error _ -> ())
    [
      "Q(x) := R(x";
      "Q(x) :=";
      "Q(x := R(x)";
      "Q(x) := R(x) &";
      "Q(x) := exists . R(x)";
      "Q(3) := R(x)";
    ]

(* Random formulas for print/parse fuzzing. *)
let rec random_formula rng depth =
  let leaf () =
    match Random.State.int rng 4 with
    | 0 ->
        Atom
          {
            rel = [| "R"; "S"; "U" |].(Random.State.int rng 3);
            args =
              (let t () =
                 if Random.State.bool rng then Var ("v" ^ string_of_int (Random.State.int rng 3))
                 else Const (Value.Int (Random.State.int rng 4))
               in
               if Random.State.int rng 3 = 0 then [ t () ] else [ t (); t () ]);
          }
    | 1 ->
        Cmp
          ( [| Eq; Neq; Lt; Le; Gt; Ge |].(Random.State.int rng 6),
            Var ("v" ^ string_of_int (Random.State.int rng 3)),
            Const (Value.Int (Random.State.int rng 4)) )
    | 2 -> True
    | _ -> False
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int rng 6 with
    | 0 -> And (random_formula rng (depth - 1), random_formula rng (depth - 1))
    | 1 -> Or (random_formula rng (depth - 1), random_formula rng (depth - 1))
    | 2 -> Not (random_formula rng (depth - 1))
    | 3 ->
        Exists
          ( [ "v" ^ string_of_int (Random.State.int rng 3) ],
            random_formula rng (depth - 1) )
    | 4 ->
        Forall
          ( [ "v" ^ string_of_int (Random.State.int rng 3) ],
            random_formula rng (depth - 1) )
    | _ -> leaf ()

let prop_pretty_parse_round_trip =
  QCheck.Test.make ~name:"print/parse round trip on random formulas" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f0 = random_formula rng 4 in
      let printed = Qlang.Pretty.formula_to_string f0 in
      let reparsed = Qlang.Parser.parse_formula printed in
      equal_formula f0 reparsed)

let test_parse_default_goal () =
  let p = Qlang.Parser.parse_program "A(x) :- E(x, y). B(x) :- A(x)." in
  Alcotest.(check string) "last head is goal" "B" p.Qlang.Datalog.answer

(* ---------- distance environments ---------- *)

let test_dist_functions () =
  let open Qlang.Dist in
  check "numeric" true (numeric (Value.Int 3) (Value.Int 7) = 4.);
  check "numeric non-int" true (numeric (Value.Str "a") (Value.Str "b") = infinity);
  check "numeric same" true (numeric (Value.Str "a") (Value.Str "a") = 0.);
  check "discrete" true
    (discrete (Value.Int 1) (Value.Int 2) = 1. && discrete (Value.Int 1) (Value.Int 1) = 0.);
  let t = table [ (Value.Str "nyc", Value.Str "ewr", 15.) ] in
  check "table forward" true (t (Value.Str "nyc") (Value.Str "ewr") = 15.);
  check "table symmetric" true (t (Value.Str "ewr") (Value.Str "nyc") = 15.);
  check "table self" true (t (Value.Str "nyc") (Value.Str "nyc") = 0.);
  check "table unknown" true (t (Value.Str "nyc") (Value.Str "lax") = infinity);
  let env = add "a" numeric (add "b" discrete empty) in
  check "names" true (names env = [ "a"; "b" ]);
  check "find" true (find env "a" (Value.Int 0) (Value.Int 2) = 2.);
  check "find_opt none" true (find_opt env "zz" = None);
  Alcotest.check_raises "find missing" Not_found (fun () ->
      let (_ : fn) = find env "zz" in
      ())

(* ---------- SP queries: one scan (Corollary 6.2) ---------- *)

(* An SP query runs through the plan engine like any other; the claim of
   Corollary 6.2 is checked on the plan: the certificate holds only for a
   single scan under its filters. *)
let sp_single_scan db query =
  let fq = Qlang.Query.Fo query in
  Qlang.Fragment.classify_query query = Qlang.Fragment.Sp
  && Analysis.Advisor.certificate_ok
       (Analysis.Plan_check.certify fq (Qlang.Query.plan db fq))
  && Relation.equal (Qlang.Query.eval db fq) (Oracle.eval_query db query)

let test_sp_eval () =
  check "SP: one certified scan, answer = oracle" true
    (sp_single_scan db (q "Q(x) := exists y. R(x, y) & x < 3 & y != 2"));
  check "a join is not SP" false
    (sp_single_scan db (q "Q(x) := exists y, z. R(x, y) & S(y, z)"))

(* A random SP query over R(_, _, _): atom arguments are variables from a
   small pool (so they may repeat) or constants, the built-ins compare
   the atom's variables with each other or with constants, and the head
   keeps a random subset of the variables. *)
let random_sp rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let const () = string_of_int (Random.State.int rng 5) in
  let args =
    List.init 3 (fun _ ->
        if Random.State.int rng 4 = 0 then const () else pick [ "x"; "y"; "z" ])
  in
  let vars = List.sort_uniq compare (List.filter (fun a -> a.[0] >= 'a') args) in
  let cmps =
    if vars = [] then []
    else
      List.init (Random.State.int rng 3) (fun _ ->
          Printf.sprintf "%s %s %s" (pick vars)
            (pick [ "="; "!="; "<"; "<=" ])
            (if Random.State.bool rng then pick vars else const ()))
  in
  let head = List.filter (fun _ -> Random.State.bool rng) vars in
  let hidden = List.filter (fun v -> not (List.mem v head)) vars in
  let body =
    String.concat " & " (Printf.sprintf "R(%s)" (String.concat ", " args) :: cmps)
  in
  Printf.sprintf "Q(%s) := %s" (String.concat ", " head)
    (if hidden = [] then body
     else Printf.sprintf "exists %s. (%s)" (String.concat ", " hidden) body)

let prop_sp_single_scan =
  QCheck.Test.make ~name:"random SP: certified single scan = oracle" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng ~specs:[ ("R", 3) ] ~rows:8 ~domain:5
      in
      let text = random_sp rng in
      sp_single_scan db (q text) || QCheck.Test.fail_reportf "%s" text)

let () =
  Alcotest.run "qlang"
    [
      ( "ast",
        [
          Alcotest.test_case "free variables" `Quick test_free_vars;
          Alcotest.test_case "conjuncts/disjuncts" `Quick test_conjuncts_disjuncts;
          Alcotest.test_case "substitution scoping" `Quick test_subst;
          Alcotest.test_case "freshen" `Quick test_freshen;
          Alcotest.test_case "relation renaming" `Quick test_rename_rels;
          Alcotest.test_case "builtin semantics" `Quick test_cmp_semantics;
        ] );
      ( "fragment",
        [
          Alcotest.test_case "classification" `Quick test_fragments;
          Alcotest.test_case "edge cases" `Quick test_fragment_edges;
          QCheck_alcotest.to_alcotest prop_classify_monotone;
          Alcotest.test_case "query language" `Quick test_query_language;
        ] );
      ( "fo_eval",
        [
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "constant selection" `Quick test_eval_selection_constants;
          Alcotest.test_case "repeated variables" `Quick test_eval_repeated_vars;
          Alcotest.test_case "negation" `Quick test_eval_negation;
          Alcotest.test_case "forall / implication" `Quick test_eval_forall;
          Alcotest.test_case "disjunction padding" `Quick test_eval_disjunction_padding;
          Alcotest.test_case "true/false" `Quick test_eval_true_false;
          Alcotest.test_case "constants extend adom" `Quick test_eval_head_constants_adom;
          Alcotest.test_case "unknown relation" `Quick test_eval_unknown_relation;
          Alcotest.test_case "dist atoms" `Quick test_eval_dist;
          Alcotest.test_case "nullary queries" `Quick test_eval_nullary;
        ] );
      ( "cq_eval",
        [
          Alcotest.test_case "planner agrees with FO eval" `Quick test_cq_matches_fo_hand;
          QCheck_alcotest.to_alcotest prop_cq_matches_fo;
        ] );
      ( "datalog",
        [
          Alcotest.test_case "transitive closure" `Quick test_datalog_tc;
          Alcotest.test_case "builtins in rules" `Quick test_datalog_builtins;
          Alcotest.test_case "facts and constants" `Quick test_datalog_facts_and_constants;
          Alcotest.test_case "check rejects bad programs" `Quick test_datalog_check_errors;
          Alcotest.test_case "recursion detection" `Quick test_datalog_nonrecursive_detection;
          Alcotest.test_case "agrees with FO on bounded paths" `Quick
            test_datalog_vs_fo_on_bounded_path;
        ] );
      ( "parser",
        [
          Alcotest.test_case "query round trips" `Quick test_parse_pretty_round_trip;
          Alcotest.test_case "program round trip" `Quick test_parse_program_round_trip;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "default goal" `Quick test_parse_default_goal;
          QCheck_alcotest.to_alcotest prop_pretty_parse_round_trip;
        ] );
      ( "dist",
        [ Alcotest.test_case "distance functions" `Quick test_dist_functions ] );
      ( "sp",
        [
          Alcotest.test_case "single-scan evaluation" `Quick test_sp_eval;
          QCheck_alcotest.to_alcotest prop_sp_single_scan;
        ] );
    ]
