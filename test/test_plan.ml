(* Differential tests for the physical-plan engine: every language routes
   through [Plan], and on random databases and queries the plan
   interpreter must agree exactly with the reference semantics
   [Oracle.eval] (the naive active-domain FO evaluator for queries, the
   naive stratified fixpoint for programs), the one oracle.  Test names
   that say [Fo_eval], [Datalog.eval] or [Query.eval_legacy] name that
   oracle by its former place in the library.  Also covers the plan operators on
   hand-written plans, compiler rejections, the plan cache, delta
   re-evaluation, shape certification and [explain]. *)

open Qlang
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seed_gen = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let counter_value name =
  match List.assoc_opt name (Observe.snapshot ()) with
  | Some (Observe.Count n) -> n
  | _ -> 0

let with_tracing f =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let random_db rng =
  Workload.Random_db.database rng
    ~specs:[ ("R", 2); ("S", 2); ("T", 1) ]
    ~rows:8 ~domain:4

(* ---------- plan operators on hand-written plans ---------- *)

let r_rel =
  Relation.of_int_rows (Schema.make "R" [ "a"; "b" ]) [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]

let s_rel = Relation.of_int_rows (Schema.make "S" [ "a"; "b" ]) [ [ 2; 10 ]; [ 3; 20 ] ]
let rs_db = Database.of_relations [ r_rel; s_rel ]

(* Run a plan written in the raw notation of [Analysis.Plan_parse]. *)
let run_raw text = Plan.run rs_db (Analysis.Plan_parse.parse text)

let rows_are what expected rel =
  check what true
    (Relation.equal rel (Relation.of_int_rows (Relation.schema rel) expected))

let test_scan_select_project () =
  rows_are "project of a filtered scan" [ [ 3 ]; [ 4 ] ]
    (run_raw "answer Q(b)\n  project [b]\n    filter a >= 2\n      scan R(a, b)");
  rows_are "constant in the scanned atom" [ [ 3 ] ]
    (run_raw "answer Q(b)\n  scan R(2, b)")

let test_join () =
  rows_are "R ⋈ S on the shared variable" [ [ 1; 2; 10 ]; [ 2; 3; 20 ] ]
    (run_raw "answer Q(a, b, c)\n  hash-join\n    scan R(a, b)\n    scan S(b, c)")

let test_product_union_diff () =
  check_int "product" 6
    (Relation.cardinal
       (run_raw "answer Q(a, b, c, d)\n  hash-join\n    scan R(a, b)\n    scan S(c, d)"));
  check_int "union" 5
    (Relation.cardinal
       (run_raw "answer Q(a, b)\n  union\n    scan R(a, b)\n    scan S(a, b)"));
  let diff other =
    run_raw
      (Printf.sprintf
         "answer Q(a, b)\n  hash-join\n    scan R(a, b)\n    complement\n      scan %s(a, b)"
         other)
  in
  check_int "self diff" 0 (Relation.cardinal (diff "R"));
  check_int "disjoint diff" 3 (Relation.cardinal (diff "S"))

let test_anti_join () =
  let anti right =
    run_raw ("answer Q(a, b)\n  anti-join\n    scan R(a, b)\n" ^ right)
  in
  rows_are "R rows whose a is no S key" [ [ 1; 2 ] ]
    (anti "    project [a]\n      scan S(a, c)");
  rows_are "no R row is an S row" [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]
    (anti "    scan S(a, b)");
  rows_are "nullary right side: non-empty removes every row" []
    (anti "    project []\n      scan S(c, d)");
  check "right side binding a variable the left lacks is refused" true
    (match anti "    scan S(a, c)" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pred_semantics () =
  let filtered cond =
    Relation.cardinal
      (run_raw (Printf.sprintf "answer Q(a, b)\n  filter %s\n    scan R(a, b)" cond))
  in
  check_int "col < col" 3 (filtered "a < b");
  check_int "col != const" 2 (filtered "a != 1");
  check_int "col = const" 1 (filtered "b = 3");
  (* a built-in leaf ranges over the active domain *)
  rows_are "builtin leaf" [ [ 2 ] ] (run_raw "answer Q(x)\n  builtin x = 2")

let test_plan_errors () =
  let errors text =
    List.map
      (fun (d : Analysis.Diagnostic.t) -> d.Analysis.Diagnostic.code)
      (List.filter Analysis.Diagnostic.is_error
         (Analysis.Plan_check.check ~db:rs_db (Analysis.Plan_parse.parse text)))
  in
  check "unknown relation" true
    (List.mem "P001" (errors "answer Q(x)\n  scan Zorp(x)"));
  check "arity mismatch" true
    (List.mem "P002" (errors "answer Q(a)\n  scan R(a)"));
  check "filter on an unbound variable" true
    (List.mem "P004" (errors "answer Q(a, b)\n  filter z < 3\n    scan R(a, b)"));
  match run_raw "answer Q(x)\n  scan Zorp(x)" with
  | _ -> Alcotest.fail "expected the unknown relation to fail at run time"
  | exception _ -> ()

let test_pp_plan () =
  let plan =
    Plan.compile_fo rs_db (Parser.parse_query "Q(a, c) := exists b. R(a, b) & S(b, c)")
  in
  let str = Format.asprintf "%a" Plan.pp plan in
  check "mentions the join" true (contains ~sub:"index-join" str);
  check "mentions both relations" true (contains ~sub:"R(" str && contains ~sub:"S(" str)

(* ---------- compiler: hand-written and random queries, rejections ---------- *)

let test_compile_hand () =
  List.iter
    (fun qstr ->
      let q = Parser.parse_query qstr in
      check ("compile: " ^ qstr) true
        (Relation.equal
           (Plan.run rs_db (Plan.compile_fo rs_db q))
           (Oracle.eval_query rs_db q)))
    [
      "Q(x, z) := exists y. R(x, y) & S(y, z)";
      "Q(x) := R(x, x)";
      "Q(y) := R(2, y)";
      "Q(x, y) := R(x, y) & x < y & y != 3";
      "Q(x, y) := R(x, y) | S(x, y)";
      "Q(x) := exists y. (R(x, y) | S(x, y))";
      "Q(x, y, x2, y2) := R(x, y) & S(x2, y2)";
      "Q(x) := R(x, y) & 1 < x";
      "Q(x) := not R(x, x)";
      "Q(x, w) := R(x, y) & w = 1";
      (* a disjunct padding over the active domain sees the other
         disjuncts' constants too: adom(Q, D) is one set per query, and 7
         occurs only in the second disjunct *)
      "Q(x, w) := (exists y. R(x, y) & w != 1) | (exists y. S(x, y) & w = 7)";
      "Q(x, w) := (exists y. R(x, y) & w = w) | (exists y. S(x, y) & w = 7)";
    ]

(* The plan compiler rejects ill-formed programs under its own name: the
   production route never reaches the test oracle, so its errors must not
   name it. *)
let test_compile_rejections () =
  let g = Workload.Random_db.graph (Random.State.make [| 5 |]) ~nodes:4 ~edges:6 in
  let expect_plan_failure what text =
    match Query.eval g (Query.Dl (Parser.parse_program text)) with
    | _ -> Alcotest.fail ("expected rejection: " ^ what)
    | exception Failure msg ->
        check (what ^ " fails with a Plan: message") true
          (String.starts_with ~prefix:"Plan: " msg)
  in
  expect_plan_failure "unstratifiable" "P(x) :- E(x, y), not P(x). ?- P.";
  expect_plan_failure "unsafe head" "P(x, z) :- E(x, y). ?- P."

let prop_cq_agrees =
  QCheck.Test.make ~name:"compiled plans = reference evaluator" ~count:120
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4 in
      Relation.equal (Oracle.eval_query db q) (Plan.run db (Plan.compile_fo db q)))

(* ---------- UCQ: random disjunctions ---------- *)

let random_ucq rng db ~disjuncts =
  let q0 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  let bodies =
    List.init disjuncts (fun _ ->
        (* Same head variables, fresh bodies: quantify away the leftovers so
           every disjunct exposes exactly the head. *)
        let q = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
        let extra =
          List.filter (fun v -> not (List.mem v q0.Ast.head))
            (Ast.free_vars q.Ast.body)
        in
        Ast.exists extra q.Ast.body)
  in
  { q0 with Ast.body = Ast.disj (Ast.exists [] q0.Ast.body :: bodies) }

let prop_ucq_agrees =
  QCheck.Test.make ~name:"random UCQ: plan = Fo_eval" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = random_ucq rng db ~disjuncts:2 in
      Relation.equal (Oracle.eval_query db q) (Plan.run db (Plan.compile_fo db q)))

(* ---------- FO: negation, comparisons, universal quantifiers ---------- *)

let random_fo rng db =
  let q1 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  let q2 = Workload.Random_db.random_cq rng db ~natoms:1 ~nvars:3 in
  let close head f =
    let extra = List.filter (fun v -> not (List.mem v head)) (Ast.free_vars f) in
    Ast.exists extra f
  in
  let body =
    match Random.State.int rng 3 with
    | 0 ->
        (* difference: q1 ∧ ¬q2 *)
        Ast.And (q1.Ast.body, Ast.Not (close q1.Ast.head q2.Ast.body))
    | 1 ->
        (* guarded universal: q1 ∧ ∀u.(¬q2[u] ∨ u ≥ 0) *)
        Ast.And
          ( q1.Ast.body,
            Ast.Forall
              ( [ "u" ],
                Ast.Or
                  ( Ast.Not (close [ "u" ] (Ast.subst
                       (List.map (fun v -> (v, Ast.Var "u"))
                          (Ast.free_vars q2.Ast.body))
                       q2.Ast.body)),
                    Ast.Cmp (Ast.Ge, Ast.Var "u", Ast.Const (Value.Int 0)) ) ) )
    | _ -> (
        (* comparison filter with a negated comparison *)
        match q1.Ast.head with
        | v :: _ ->
            Ast.And
              ( q1.Ast.body,
                Ast.Not (Ast.Cmp (Ast.Eq, Ast.Var v, Ast.Const (Value.Int 1)))
              )
        | [] -> Ast.And (q1.Ast.body, Ast.Not (close [] q2.Ast.body)))
  in
  { q1 with Ast.body = body }

let prop_fo_agrees =
  QCheck.Test.make ~name:"random FO (¬, ∀, cmp): plan = Fo_eval" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = random_fo rng db in
      let reference = Oracle.eval_query db q in
      Relation.equal reference (Plan.run db (Plan.compile_fo db q)))

(* ---------- guarded negation: anti-joins, no active domain ---------- *)

let atom rel args = { Ast.rel; args = List.map (fun v -> Ast.Var v) args }

(* A safe-range FO query over R/2, S/2, T/1: positive atoms bind a
   variable set B; every comparison (or disjunction of two comparisons)
   ranges over B, and every [¬h] has
   [fv h ⊆ B] — [h] an atom, an existential, a same-variable disjunction,
   or itself a guarded conjunction with a nested negation.  Some of B is
   then quantified away. *)
let guarded_fo rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let v x = Ast.Var x in
  let pool = [ "x"; "y"; "z" ] in
  let positives =
    List.init
      (1 + Random.State.int rng 2)
      (fun _ ->
        match Random.State.int rng 3 with
        | 0 -> Ast.Atom (atom "T" [ pick pool ])
        | 1 -> Ast.Atom (atom "R" [ pick pool; pick pool ])
        | _ -> Ast.Atom (atom "S" [ pick pool; pick pool ]))
  in
  let bound = Ast.free_vars (Ast.conj positives) in
  let b () = pick bound in
  let negated () =
    match Random.State.int rng 5 with
    | 0 -> Ast.Atom (atom "T" [ b () ])
    | 1 -> Ast.Atom (atom (pick [ "R"; "S" ]) [ b (); b () ])
    | 2 -> Ast.Exists ([ "u" ], Ast.Atom (atom "R" [ b (); "u" ]))
    | 3 ->
        let w = b () in
        Ast.Or
          ( Ast.Atom (atom "T" [ w ]),
            Ast.Exists ([ "u" ], Ast.Atom (atom "S" [ "u"; w ])) )
    | _ ->
        Ast.Exists
          ( [ "u" ],
            Ast.And
              ( Ast.Atom (atom "R" [ b (); "u" ]),
                Ast.Not (Ast.Atom (atom "T" [ "u" ])) ) )
  in
  let cmp_op () = pick [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let cmp () =
    match Random.State.int rng 2 with
    | 0 ->
        Ast.Cmp (cmp_op (), v (b ()), Ast.Const (Value.Int (Random.State.int rng 4)))
    | _ -> Ast.Cmp (cmp_op (), v (b ()), v (b ()))
  in
  let guard () =
    match Random.State.int rng 4 with
    | 0 | 1 -> cmp ()
    | 2 -> Ast.Or (cmp (), cmp ())
    | _ -> Ast.Not (negated ())
  in
  let guards =
    Ast.Not (negated ()) :: List.init (Random.State.int rng 3) (fun _ -> guard ())
  in
  let head = List.filter (fun _ -> Random.State.bool rng) bound in
  let hidden = List.filter (fun x -> not (List.mem x head)) bound in
  {
    Ast.name = "Q";
    head;
    body = Ast.exists hidden (Ast.conj (positives @ guards));
  }

let prop_guarded_fo =
  QCheck.Test.make
    ~name:"guarded FO: anti-join plan, no active domain, = Query.eval_legacy"
    ~count:200 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = guarded_fo rng in
      let plan = Plan.compile_fo db q in
      let s = Plan.shape plan in
      s.Plan.anti_joins >= 1
      && s.Plan.complements = 0 && s.Plan.builtins = 0 && s.Plan.extends = 0
      && (not (Plan.adom_sensitive plan))
      && Relation.equal (Oracle.eval db (Query.Fo q)) (Plan.run db plan))

(* ---------- Datalog: recursion and stratified negation ---------- *)

let tc_program =
  {
    Datalog.rules =
      [
        Datalog.rule (atom "reach" [ "x"; "y" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule
          (atom "reach" [ "x"; "z" ])
          [ Datalog.Rel (atom "reach" [ "x"; "y" ]); Datalog.Rel (atom "E" [ "y"; "z" ]) ];
      ];
    answer = "reach";
  }

let unreachable_program =
  {
    Datalog.rules =
      [
        Datalog.rule (atom "node" [ "x" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule (atom "node" [ "y" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule (atom "reach" [ "x"; "y" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule
          (atom "reach" [ "x"; "z" ])
          [ Datalog.Rel (atom "reach" [ "x"; "y" ]); Datalog.Rel (atom "E" [ "y"; "z" ]) ];
        Datalog.rule
          (atom "unreach" [ "x"; "y" ])
          [
            Datalog.Rel (atom "node" [ "x" ]);
            Datalog.Rel (atom "node" [ "y" ]);
            Datalog.Neg (atom "reach" [ "x"; "y" ]);
          ];
      ];
    answer = "unreach";
  }

let prop_datalog_agrees =
  QCheck.Test.make
    ~name:"random graph: plan fixpoint = Datalog.eval (TC + stratified ¬)"
    ~count:80 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = Workload.Random_db.graph rng ~nodes:6 ~edges:10 in
      List.for_all
        (fun p ->
          Relation.equal (Oracle.eval_program db p)
            (Plan.run db (Plan.compile_datalog db p)))
        [ tc_program; unreachable_program ])

(* Safe Datalog negation always plans as an anti-join: every negated
   literal's variables are bound by the rule's positive literals. *)
let neg_programs c =
  List.map Parser.parse_program
    [
      Printf.sprintf
        "reach(x, y) :- E(x, y).\n\
         reach(x, z) :- reach(x, y), E(y, z).\n\
         oneway(x, y) :- E(x, y), not reach(y, x), x != %d.\n\
         ?- oneway."
        c;
      Printf.sprintf
        "src(x) :- E(x, y), not E(y, x).\n\
         far(x, z) :- E(x, y), E(y, z), not E(x, z), not src(z), z < %d.\n\
         ?- far."
        c;
    ]

let prop_datalog_neg_anti_join =
  QCheck.Test.make
    ~name:"random graph: Datalog ¬ plans as anti-join = Datalog.eval"
    ~count:80 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = Workload.Random_db.graph rng ~nodes:6 ~edges:10 in
      List.for_all
        (fun p ->
          let plan = Plan.compile_datalog db p in
          let s = Plan.shape plan in
          s.Plan.anti_joins >= 1 && s.Plan.complements = 0
          && Relation.equal (Oracle.eval_program db p) (Plan.run db plan))
        (unreachable_program :: neg_programs (Random.State.int rng 6)))

(* Random recursive programs over the graph [E]: linear recursion on
   either side, non-linear recursion, two IDBs in one SCC and a unary
   reachability, with comparisons in base and recursive rules and an
   optional stratified layer on top.  Round 0 skips every rule reading an
   IDB of its own stratum, so these pin that skip against the naive
   evaluator, on the graph and after random writes to it. *)
let random_recursive_program rng =
  let c () = Random.State.int rng 6 in
  let cmp () = [| "<"; ">"; "<="; "!=" |].(Random.State.int rng 4) in
  let guard v =
    if Random.State.bool rng then Printf.sprintf ", %s %s %d" v (cmp ()) (c ())
    else ""
  in
  let base p = Printf.sprintf "%s(x, y) :- E(x, y)%s." p (guard "x") in
  let binary, rules =
    match Random.State.int rng 5 with
    | 0 -> (true, [ base "P"; "P(x, z) :- P(x, y), E(y, z)" ^ guard "z" ^ "." ])
    | 1 -> (true, [ base "P"; "P(x, z) :- E(x, y), P(y, z)" ^ guard "x" ^ "." ])
    | 2 -> (true, [ base "P"; "P(x, z) :- P(x, y), P(y, z)" ^ guard "y" ^ "." ])
    | 3 ->
        ( true,
          [
            base "A";
            "B(x, z) :- A(x, y), E(y, z)" ^ guard "z" ^ ".";
            "A(x, z) :- B(x, y), E(y, z).";
            "P(x, y) :- " ^ [| "A"; "B" |].(Random.State.int rng 2) ^ "(x, y).";
          ] )
    | _ ->
        ( false,
          [
            Printf.sprintf "P(y) :- E(x, y), x %s %d." (cmp ()) (c ());
            "P(y) :- P(x), E(x, y)" ^ guard "y" ^ ".";
          ] )
  in
  let top, answer =
    if binary && Random.State.bool rng then
      ([ "T(x, y) :- P(x, y), not E(y, x)." ], "T")
    else ([], "P")
  in
  Parser.parse_program
    (String.concat "\n" (rules @ top @ [ "?- " ^ answer ^ "." ]))

let prop_recursive_programs_under_writes =
  QCheck.Test.make
    ~name:"random recursion under writes: plan = Datalog.eval"
    ~count:150 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_recursive_program rng in
      let agrees db =
        Relation.equal (Oracle.eval_program db p) (Plan.run db (Plan.compile_datalog db p))
        && Relation.equal (Oracle.eval_program db p) (Query.eval db (Query.Dl p))
      in
      let write db =
        let e = Database.find db "E" in
        if Random.State.bool rng || Relation.is_empty e then
          let v () = Value.Int (Random.State.int rng 7) in
          Database.insert_tuple "E" (Tuple.of_list [ v (); v () ]) db
        else
          let edges = Relation.to_list e in
          Database.delete_tuple "E"
            (List.nth edges (Random.State.int rng (List.length edges)))
            db
      in
      let db0 = Workload.Random_db.graph rng ~nodes:6 ~edges:10 in
      let rec go db k = agrees db && (k = 0 || go (write db) (k - 1)) in
      go db0 4)

(* Round 0 of reachable.dl runs only the base rule: the recursive rule's
   full body would scan the still-empty [reach], so the run's [scan]s are
   the base rule's one scan of [flight] plus the delta variants' — two per
   round that had a delta.  And
   a filter over a scan is fused into it: the scan adds only the rows that
   pass to [plan.rows]. *)
let test_fixpoint_counters () =
  with_tracing @@ fun () ->
  let flights =
    Relation.of_list
      (Schema.make "flight" [ "f"; "orig"; "dest"; "price" ])
      (List.map
         (fun (f, o, d, p) ->
           Tuple.of_list [ Value.Int f; Value.Str o; Value.Str d; Value.Int p ])
         [
           (1, "edi", "cdg", 120);
           (2, "cdg", "nyc", 250);
           (3, "nyc", "sfo", 300);
           (4, "edi", "nyc", 410);
         ])
  in
  let db = Database.of_relations [ flights ] in
  let p =
    Parser.parse_program
      "reach(x, y) :- flight(f, x, y, p).\n\
       reach(x, z) :- reach(x, y), reach(y, z).\n\
       ?- reach."
  in
  let answer = Plan.run db (Plan.compile_datalog db p) in
  check "reachable.dl = Oracle.eval_program" true
    (Relation.equal answer (Oracle.eval_program db p));
  let rounds = counter_value "plan.fixpoint_rounds" in
  check "the fixpoint iterated" true (rounds >= 2);
  check_int "round 0 scans no IDB: two delta scans per round"
    (1 + (2 * (rounds - 1)))
    (counter_value "plan.scans");
  Observe.reset ();
  let q = Parser.parse_query "Q(f, p) := exists o, d. flight(f, o, d, p) & p < 200" in
  let answer = Plan.run db (Plan.compile_fo db q) in
  check_int "one flight passes" 1 (Relation.cardinal answer);
  check_int "the filtered scan adds only its passing rows" 1
    (counter_value "plan.rows")

(* ---------- non-recursive strata whose head rows repeat ---------- *)

(* A non-recursive stratum deduplicates its rules' head rows in a row hash
   set before building the IDB once.  Every program below derives each
   head row many times over — a projection dropping the variable that
   varies (the narrowed index join at the root of [two] skips its own
   deduplication), and two rules deriving overlapping rows — and must
   agree with the reference fixpoint. *)
let prop_nonrecursive_repeats =
  QCheck.Test.make ~count:60
    ~name:"non-recursive stratum with repeated head rows = Oracle.eval_program"
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nodes = 5 + Random.State.int rng 20 in
      let db = Workload.Random_db.graph rng ~nodes ~edges:(4 * nodes) in
      let k = 1 + Random.State.int rng nodes in
      let programs =
        [
          Printf.sprintf "R(y) :- E(x, y), x < %d.\n?- R." k;
          Printf.sprintf "R(y) :- E(x, y), x < %d.\nR(y) :- E(y, x), x < %d.\n?- R." k k;
          "two(x, z) :- E(x, y), E(y, z).\n?- two.";
          "hub(x) :- E(x, y), E(x, z), y != z.\n?- hub.";
        ]
      in
      List.for_all
        (fun text ->
          let p = Parser.parse_program text in
          Relation.equal (Plan.run db (Plan.compile_datalog db p)) (Oracle.eval_program db p))
        programs)

let test_nonrecursive_repeats () =
  (* 2000 edges over 400 nodes, most read twice: [x < 300] keeps about
     three quarters of the edges, whose 1500-odd targets repeat. *)
  let rng = Random.State.make [| 5 |] in
  let db = Workload.Random_db.graph rng ~nodes:400 ~edges:2000 in
  let p = Parser.parse_program "R(y) :- E(x, y), x < 300.\n?- R." in
  let answer = Plan.run db (Plan.compile_datalog db p) in
  let derived =
    Relation.fold
      (fun t n -> match t.(0) with Value.Int x when x < 300 -> n + 1 | _ -> n)
      (Database.find db "E") 0
  in
  check "head rows repeat" true (derived > Relation.cardinal answer);
  check "R(y) :- E(x, y), x < 300 = Oracle.eval_program" true
    (Relation.equal answer (Oracle.eval_program db p))

(* ---------- the oracle stays independent of the engine it checks ---------- *)

(* [Oracle.eval] over every shipped example query and program bumps no
   [plan.*] counter and leaves no plan-cache entry behind: the first
   cached compile afterwards still misses.  An oracle routed through
   [Plan] would agree with it by construction and check nothing.
   [dune runtest] runs in the build's test directory, [dune exec] from
   the project root. *)
let test_oracle_independent () =
  let dir = List.find Sys.file_exists [ "../examples/queries"; "examples/queries" ] in
  let read f = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
  let db = Database.of_string (read "db.txt") in
  let queries =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".q" then
             Some (Query.Fo (Parser.parse_query (read f)))
           else if Filename.check_suffix f ".dl" then
             Some (Query.Dl (Parser.parse_program (read f)))
           else None)
  in
  check "the corpus has queries and programs" true
    (List.exists (function Query.Fo _ -> true | _ -> false) queries
    && List.exists (function Query.Dl _ -> true | _ -> false) queries);
  with_tracing @@ fun () ->
  List.iter (fun q -> ignore (Oracle.eval db q)) queries;
  List.iter
    (fun (name, v) ->
      match v with
      | Observe.Count n when String.starts_with ~prefix:"plan." name ->
          check_int (name ^ " untouched by the oracle") 0 n
      | _ -> ())
    (Observe.snapshot ());
  List.iter (fun q -> ignore (Query.plan db q)) queries;
  check_int "no plan-cache entry from the oracle" 0 (counter_value "plan.cache_hit");
  check_int "every cached compile misses" (List.length queries)
    (counter_value "plan.cache_miss")

(* ---------- Query.eval routing = legacy across all six languages ---------- *)

let prop_query_eval_matches_legacy =
  QCheck.Test.make ~name:"Query.eval (plan route) = Query.eval_legacy"
    ~count:80 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let qs =
        [
          Query.Fo (Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4);
          Query.Fo (random_ucq rng db ~disjuncts:2);
          Query.Fo (random_fo rng db);
          Query.Identity "R";
          Query.Empty_query;
        ]
      in
      List.for_all
        (fun q -> Relation.equal (Query.eval db q) (Oracle.eval db q))
        qs
      &&
      let g = Workload.Random_db.graph rng ~nodes:5 ~edges:8 in
      List.for_all
        (fun p ->
          Relation.equal
            (Query.eval g (Query.Dl p))
            (Oracle.eval g (Query.Dl p)))
        [ tc_program; unreachable_program ])

(* ---------- delta re-evaluation vs full recompute ---------- *)

let prop_delta_matches_full =
  QCheck.Test.make
    ~name:"delta eval over D ⊕ RQ = full recompute (FO and Datalog)"
    ~count:80 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let rq_schema = Schema.make "RQ" [ "a"; "b" ] in
      let qc =
        let q = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
        (* Mention RQ in half the queries so both the patched and the
           fully-frozen paths are exercised. *)
        if Random.State.bool rng then
          { q with
            Ast.body = Ast.And (q.Ast.body, Ast.Atom (atom "RQ" [ "p"; "q" ]));
          }
        else q
      in
      let d =
        Engine.delta_prepare db ~rel:"RQ" ~schema:rq_schema (Query.Fo qc)
      in
      List.for_all
        (fun _ ->
          let rq =
            Workload.Random_db.relation rng rq_schema ~rows:3 ~domain:4
          in
          let full = Oracle.eval (Database.add rq db) (Query.Fo qc) in
          Relation.equal full (Engine.delta_eval d rq)
          && Engine.delta_is_empty d rq = Relation.is_empty full)
        [ (); (); () ])

let prop_delta_datalog_matches_full =
  QCheck.Test.make ~name:"delta eval = full recompute (Datalog over E ⊕ RQ)"
    ~count:40 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = Workload.Random_db.graph rng ~nodes:5 ~edges:8 in
      let rq_schema = Schema.make "RQ" [ "a"; "b" ] in
      let p =
        {
          Datalog.rules =
            [
              Datalog.rule (atom "reach" [ "x"; "y" ])
                [ Datalog.Rel (atom "RQ" [ "x"; "y" ]) ];
              Datalog.rule
                (atom "reach" [ "x"; "z" ])
                [
                  Datalog.Rel (atom "reach" [ "x"; "y" ]);
                  Datalog.Rel (atom "E" [ "y"; "z" ]);
                ];
            ];
          answer = "reach";
        }
      in
      let d = Engine.delta_prepare db ~rel:"RQ" ~schema:rq_schema (Query.Dl p) in
      let rq = Workload.Random_db.relation rng rq_schema ~rows:2 ~domain:5 in
      let full = Oracle.eval (Database.add rq db) (Query.Dl p) in
      Relation.equal full (Engine.delta_eval d rq)
      && Engine.delta_is_empty d rq = Relation.is_empty full)

(* The compatibility-oracle loop "is Qc(D ⊕ N) empty?" over 30
   single-row packages.  Qc's A ⋈ B component never mentions RQ, so delta
   preparation evaluates it once and each call only patches the RQ part;
   a full recompute redoes the join per package.  Counted in plan rows,
   not seconds. *)
let test_delta_rows_below_full () =
  with_tracing @@ fun () ->
  let n = 250 in
  let db =
    Workload.Random_db.database (Random.State.make [| 0xBEEF; n |])
      ~specs:[ ("A", 2); ("B", 2) ]
      ~rows:n ~domain:(n / 2)
  in
  let rq_schema = Schema.make "RQ" [ "a" ] in
  let qc =
    Query.Fo
      (Parser.parse_query "Qc(p) := exists x, y, z. A(x, y) & B(y, z) & RQ(p)")
  in
  let rows_of f =
    let before = counter_value "plan.rows" in
    let r = f () in
    (r, counter_value "plan.rows" - before)
  in
  let d = Engine.delta_prepare db ~rel:"RQ" ~schema:rq_schema qc in
  for i = 0 to 29 do
    let rq = Relation.of_int_rows rq_schema [ [ i ] ] in
    let full, full_rows =
      rows_of (fun () -> Query.eval (Database.add rq db) qc)
    in
    let empty, delta_rows = rows_of (fun () -> Engine.delta_is_empty d rq) in
    check "full recompute joins rows" true (full_rows > 0);
    check
      (Printf.sprintf "package %d: delta adds fewer rows (%d) than full (%d)" i
         delta_rows full_rows)
      true (delta_rows < full_rows);
    check "delta_is_empty agrees" (Relation.is_empty full) empty;
    check "delta_eval agrees" true (Relation.equal full (Engine.delta_eval d rq))
  done

(* ---------- shape certification ---------- *)

let sp_query =
  Parser.parse_query "Q(f, price) := exists d. flight(f, \"edi\", d, price) & price < 400"

let flight_db =
  Database.of_string
    "flight(f, orig, dest, price)\n\
     1, \"edi\", \"nyc\", 300\n\
     2, \"edi\", \"cdg\", 120\n\
     3, \"cdg\", \"nyc\", 250\n"

let test_sp_single_scan () =
  let plan = Plan.compile_fo flight_db sp_query in
  let s = Plan.shape plan in
  check_int "one scan" 1 s.Plan.scans;
  check_int "no joins" 0 s.Plan.index_joins;
  check_int "no hash joins" 0 s.Plan.hash_joins;
  check_int "no unions" 0 s.Plan.unions;
  check_int "no complements" 0 s.Plan.complements;
  check "advisor certifies" true
    (Analysis.Advisor.certificate_ok
       (Analysis.Advisor.certify_plan (Query.Fo sp_query) plan))

(* A disjunction of comparisons over bound variables — churn-teams'
   ∃FO⁺ read — is one filter, not a union of built-ins over the active
   domain: the plan never reads the domain and stays certified. *)
let test_disjunctive_filter () =
  let db =
    Database.of_relations
      [
        Relation.of_int_rows (Schema.make "X" [ "e"; "s" ])
          [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ]; [ 4; 1 ] ];
        Relation.of_int_rows (Schema.make "C" [ "a"; "b" ])
          [ [ 1; 2 ]; [ 3; 1 ]; [ 4; 3 ]; [ 2; 4 ] ];
      ]
  in
  let q =
    Parser.parse_query
      "Q(a, b) := exists s. X(a, s) & (C(a, b) | C(b, a)) & (s = 1 | s = 3)"
  in
  let plan = Plan.compile_fo db q in
  let s = Plan.shape plan in
  check_int "no built-in leaves" 0 s.Plan.builtins;
  check_int "one filter" 1 s.Plan.filters;
  check "not adom-sensitive" false (Plan.adom_sensitive plan);
  check "certified" true
    (Analysis.Plan_check.ok (Analysis.Plan_check.check ~db ~query:(Query.Fo q) plan));
  check "= Oracle.eval" true
    (Relation.equal (Plan.run db plan) (Oracle.eval db (Query.Fo q)));
  let text = Format.asprintf "%a" Plan.pp plan in
  check "prints the disjunction" true (contains ~sub:"filter s = 1 | s = 3" text);
  (* and the raw notation reads it back *)
  let raw =
    Analysis.Plan_parse.parse "answer Q(a, s)\n  filter s = 1 | s = 3\n    scan X(a, s)"
  in
  check_int "parsed disjunctive filter keeps s in {1, 3}" 3
    (Relation.cardinal (Plan.run db raw))

let test_certificates () =
  let cq = Parser.parse_query "Q(x, z) := exists y. R(x, y) & S(y, z)" in
  let rng = Random.State.make [| 7 |] in
  let db = random_db rng in
  let plan = Plan.compile_fo db cq in
  check "CQ certified complement-free" true
    (Analysis.Advisor.certificate_ok
       (Analysis.Advisor.certify_plan (Query.Fo cq) plan));
  let g = Workload.Random_db.graph rng ~nodes:4 ~edges:6 in
  check "Datalog certified as fixpoint" true
    (Analysis.Advisor.certificate_ok
       (Analysis.Advisor.certify_plan (Query.Dl tc_program)
          (Plan.compile_datalog g tc_program)));
  check "identity certified" true
    (Analysis.Advisor.certificate_ok
       (Analysis.Advisor.certify_plan (Query.Identity "E") (Plan.identity "E")))

(* ---------- plan cache ---------- *)

let test_plan_cache_hit () =
  with_tracing @@ fun () ->
  let rng = Random.State.make [| 11 |] in
  let db = random_db rng in
  let q = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  let p1 = Plan.compile_fo_cached db q in
  let misses = counter_value "plan.cache_miss" in
  check "first compile misses" true (misses >= 1);
  let hits0 = counter_value "plan.cache_hit" in
  let p2 = Plan.compile_fo_cached db q in
  check "second compile hits the cache" true
    (counter_value "plan.cache_hit" = hits0 + 1);
  check "cached plan is the same value" true (p1 == p2);
  (* The cache keys on the revisions of the relations the query mentions:
     churn elsewhere in the database keeps the entry live... *)
  let db' = Database.add (Relation.empty (Schema.make "Z" [ "a" ])) db in
  let hits1 = counter_value "plan.cache_hit" in
  let p3 = Plan.compile_fo_cached db' q in
  check "unrelated relation change still hits" true
    (counter_value "plan.cache_hit" = hits1 + 1);
  check "unrelated change reuses the plan value" true (p1 == p3);
  (* ... while mutating a mentioned relation changes its revision and
     forces a recompile against fresh statistics. *)
  let rel = List.hd (Plan.rels p1) in
  let r0 = Database.find db rel in
  let fresh_tup =
    Tuple.of_list (List.init (Relation.arity r0) (fun i -> Value.Int (9000 + i)))
  in
  let db2 = Database.add (Relation.add fresh_tup r0) db in
  ignore (Plan.compile_fo_cached db2 q);
  check "mutated mentioned relation misses" true
    (counter_value "plan.cache_miss" > misses);
  (* Removing the same tuple restores the relation's revision, so the
     original entry hits again: a net no-op round trip is free. *)
  let db3 = Database.add (Relation.remove fresh_tup (Database.find db2 rel)) db2 in
  let hits2 = counter_value "plan.cache_hit" in
  ignore (Plan.compile_fo_cached db3 q);
  check "net no-op round trip hits again" true
    (counter_value "plan.cache_hit" = hits2 + 1)

let test_query_eval_uses_cache () =
  with_tracing @@ fun () ->
  let rng = Random.State.make [| 13 |] in
  let db = random_db rng in
  let q = Query.Fo (Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3) in
  let r1 = Query.eval db q in
  let compiles = counter_value "plan.compiles" in
  let r2 = Query.eval db q in
  check "no recompilation on the second eval" true
    (counter_value "plan.compiles" = compiles);
  check "same answers" true (Relation.equal r1 r2)

(* ---------- explain ---------- *)

let test_explain_output () =
  let text = Engine.explain flight_db (Query.Fo sp_query) in
  check "explain shows estimates" true (contains ~sub:"est" text);
  check "explain shows actual row counts" true (contains ~sub:"actual" text);
  check "explain shows the leaf scan" true (contains ~sub:"scan flight" text);
  check "explain reports the result size" true (contains ~sub:"result:" text)

(* ---------- Exist_pack candidate list is materialized once ---------- *)

let test_candidates_materialized_once () =
  let inst =
    Workload.Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:3 ()
  in
  let c = Core.Exist_pack.ctx inst in
  let l1 = Core.Exist_pack.candidates c in
  let l2 = Core.Exist_pack.candidates c in
  check "same physical list across calls" true (l1 == l2)

(* ---------- memo.compat_capped counter ---------- *)

let test_compat_memo_cap () =
  with_tracing @@ fun () ->
  let db =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "a" ]) [ [ 0 ] ] ]
  in
  let q = Parser.parse_query "Q(x) := R(x)" in
  let qc = Parser.parse_query "Qc() := exists x. RQ(x) & not R(x)" in
  let inst =
    Core.Instance.make ~db ~select:(Query.Fo q)
      ~compat:(Core.Instance.Compat_query (Query.Fo qc))
      ~cost:Core.Rating.card_or_infinite ~value:Core.Rating.count ~budget:10. ()
  in
  (* The verdicts live with the constraint's resolved route (here the
     delta route: Qc has a negation).  Overfill them: past the cap every
     fresh package recomputes and bumps the counter instead of being
     stored. *)
  ignore (Core.Instance.compat_route inst);
  let over = 5 in
  for i = 0 to Core.Instance.compat_memo_cap + over - 1 do
    let pkg = Core.Package.singleton (Tuple.of_ints [ i ]) in
    ignore (Core.Instance.memo_compat inst pkg (fun () -> true))
  done;
  check_int "overflow recomputes are counted" over
    (counter_value "memo.compat_capped");
  (* Capped entries still answer correctly. *)
  let pkg = Core.Package.singleton (Tuple.of_ints [ Core.Instance.compat_memo_cap ]) in
  check "verdict still served" true
    (Core.Instance.memo_compat inst pkg (fun () -> true))

(* ---------- delta in the compatibility oracle ---------- *)

let test_validity_uses_delta () =
  with_tracing @@ fun () ->
  let inst =
    Workload.Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:3 ()
  in
  let cands = Relation.to_list (Core.Instance.candidates inst) in
  check "travel instance has candidates" true (cands <> []);
  let pkg = Core.Package.singleton (List.hd cands) in
  (* The travel constraint is a UCQ: its conflict sets answer, and agree
     with a delta evaluation of the same package. *)
  let verdict = Core.Validity.compatible inst pkg in
  check "UCQ compat check used the conflict sets" true
    (counter_value "compat.conflict_checks" = 1
    && counter_value "plan.delta_evals" = 0);
  let rq = Core.Package.to_relation (Core.Instance.answer_schema inst) pkg in
  let qc =
    match inst.Core.Instance.compat with
    | Core.Instance.Compat_query qc -> qc
    | _ -> Alcotest.fail "travel instance has a query constraint"
  in
  let delta =
    Qlang.Engine.delta_prepare ~dist:inst.Core.Instance.dist inst.Core.Instance.db
      ~rel:inst.Core.Instance.answer_rel
      ~schema:(Core.Instance.answer_schema inst) qc
  in
  check "conflict-set verdict = delta verdict" verdict
    (Qlang.Engine.delta_is_empty delta rq);
  (* A constraint with a negation takes the delta route. *)
  let fo =
    Parser.parse_query
      "Qc() := exists f, p, n, k, t, m. RQ(f, p, n, k, t, m) & not (k = \"museum\")"
  in
  let inst = { inst with compat = Core.Instance.Compat_query (Query.Fo fo) } in
  let before = counter_value "plan.delta_evals" in
  ignore (Core.Validity.compatible inst pkg);
  check "compat check went through delta evaluation" true
    (counter_value "plan.delta_evals" > before)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [
      ( "plans",
        [
          Alcotest.test_case "scan/select/project" `Quick test_scan_select_project;
          Alcotest.test_case "hash join" `Quick test_join;
          Alcotest.test_case "product/union/diff" `Quick test_product_union_diff;
          Alcotest.test_case "predicate semantics" `Quick test_pred_semantics;
          Alcotest.test_case "ill-formed plans" `Quick test_plan_errors;
          Alcotest.test_case "plan printing" `Quick test_pp_plan;
          Alcotest.test_case "anti-join" `Quick test_anti_join;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "hand-written queries" `Quick test_compile_hand;
          Alcotest.test_case "rejections" `Quick test_compile_rejections;
        ]
        @ qsuite [ prop_cq_agrees ] );
      ( "differential",
        qsuite
          [
            prop_ucq_agrees;
            prop_fo_agrees;
            prop_datalog_agrees;
            prop_query_eval_matches_legacy;
            prop_guarded_fo;
            prop_datalog_neg_anti_join;
            prop_recursive_programs_under_writes;
            prop_nonrecursive_repeats;
          ]
        @ [
            Alcotest.test_case "fixpoint counters" `Quick test_fixpoint_counters;
            Alcotest.test_case "one large stratum of repeated head rows"
              `Quick test_nonrecursive_repeats;
            Alcotest.test_case "oracle is independent of the plan engine" `Quick
              test_oracle_independent;
          ] );
      ( "delta",
        qsuite [ prop_delta_matches_full; prop_delta_datalog_matches_full ]
        @ [
            Alcotest.test_case "oracle uses delta" `Quick test_validity_uses_delta;
            Alcotest.test_case "delta adds fewer rows than full recompute" `Quick
              test_delta_rows_below_full;
          ] );
      ( "shape",
        [
          Alcotest.test_case "SP compiles to a single scan" `Quick
            test_sp_single_scan;
          Alcotest.test_case "advisor certificates" `Quick test_certificates;
          Alcotest.test_case "disjunctive filter" `Quick test_disjunctive_filter;
        ] );
      ( "cache",
        [
          Alcotest.test_case "compile cache hits" `Quick test_plan_cache_hit;
          Alcotest.test_case "Query.eval reuses plans" `Quick
            test_query_eval_uses_cache;
        ] );
      ( "explain",
        [ Alcotest.test_case "est vs actual" `Quick test_explain_output ] );
      ( "core",
        [
          Alcotest.test_case "Exist_pack candidates materialized once" `Quick
            test_candidates_materialized_once;
          Alcotest.test_case "memo.compat_capped" `Quick test_compat_memo_cap;
        ] );
    ]
