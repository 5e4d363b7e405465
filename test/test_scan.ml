(* Leaf scans over the row store: differential properties pinning the
   one atom leaf ([Scan], narrowed or not by the covering rewrite) and the
   index join to the reference oracle [Oracle.eval] across every
   query language; a constant position reading the maintained by-column
   index; the column view's accessors and the incremental statistics
   under add/remove; the P009 typing negative; and the [explain] lines of
   index joins and fused filtered scans. *)

open Qlang
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Column = Relational.Column
module Intern = Relational.Intern
module Vmap = Relational.Vmap

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

(* ---------- the column store ---------- *)

let r3 =
  Relation.of_int_rows (Schema.make "R" [ "a"; "b" ])
    [ [ 1; 10 ]; [ 2; 20 ]; [ 2; 30 ] ]

let test_column_store () =
  let c = Relation.columns r3 in
  check_int "rows" 3 (Column.rows c);
  check_int "arity" 2 (Column.arity c);
  (* row numbering matches Relation.to_array *)
  let arr = Relation.to_array r3 in
  check "tuple view = to_array" true
    (List.for_all
       (fun i -> compare (Column.tuple c i) arr.(i) = 0)
       [ 0; 1; 2 ]);
  check "value accessor decodes ids" true
    (List.for_all
       (fun (r, v) -> Value.compare (Column.value c ~col:0 ~row:r) (Value.Int v) = 0)
       [ (0, 1); (1, 2); (2, 2) ]);
  check_int "distinct a" 2 (Column.distinct c 0);
  check_int "distinct b" 3 (Column.distinct c 1);
  (* the count tables agree with the tuples *)
  check_int "count of a=2" 2
    (Option.value ~default:0
       (Hashtbl.find_opt (Column.counts c).(0) (Intern.id (Value.Int 2))))

let test_column_bounds () =
  let c = Relation.columns r3 in
  let expect_failure name ~sub f =
    match f () with
    | exception Failure msg ->
        check (name ^ " is a named error") true
          (contains ~sub:"Column." msg && contains ~sub msg)
    | _ -> Alcotest.failf "%s: expected Failure" name
  in
  expect_failure "column out of range" ~sub:"R" (fun () -> Column.ids c 5);
  expect_failure "row out of range" ~sub:"3 rows" (fun () ->
      Column.id c ~col:0 ~row:7);
  expect_failure "negative row" ~sub:"R" (fun () -> Column.tuple c (-1));
  expect_failure "distinct column out of range" ~sub:"arity 2" (fun () ->
      Column.distinct c 2)

(* ---------- incremental statistics ---------- *)

let prop_incremental_counts =
  QCheck.Test.make
    ~name:"col_counts: incremental add/remove chain = from-scratch rebuild"
    ~count:300 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sch = Schema.make "R" [ "a"; "b" ] in
      let base = Workload.Random_db.relation rng sch ~rows:8 ~domain:4 in
      (* prime the cache so derivations take the incremental path *)
      ignore (Relation.col_counts base);
      let tup () =
        Tuple.of_ints [ Random.State.int rng 4; Random.State.int rng 4 ]
      in
      let r =
        List.fold_left
          (fun r _ ->
            if Random.State.bool rng then Relation.add (tup ()) r
            else Relation.remove (tup ()) r)
          base
          (List.init 12 Fun.id)
      in
      (* the chain must have maintained counts, not dropped them *)
      Relation.has_counts r
      &&
      let fresh = Relation.of_list sch (Relation.to_list r) in
      (* each column's size (kept apart from the tree) and its
         bindings, in key order *)
      let dump maps =
        Array.to_list maps
        |> List.map (fun m -> (Vmap.cardinal m, Vmap.bindings m))
      in
      dump (Relation.col_counts r) = dump (Relation.col_counts fresh))

let test_noop_add_remove_keep_cache () =
  let r = r3 in
  ignore (Relation.col_counts r);
  let same = Relation.add (Tuple.of_ints [ 1; 10 ]) r in
  check "re-adding a member returns the same relation" true (same == r);
  let same' = Relation.remove (Tuple.of_ints [ 9; 9 ]) r in
  check "removing a non-member returns the same relation" true (same' == r)

(* ---------- differential properties: scan plans = legacy ---------- *)

let random_db rng =
  Workload.Random_db.database rng
    ~specs:[ ("R", 2); ("S", 2); ("T", 1) ]
    ~rows:8 ~domain:4

let random_ucq rng db ~disjuncts =
  let q0 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  let bodies =
    List.init disjuncts (fun _ ->
        let q = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
        let extra =
          List.filter
            (fun v -> not (List.mem v q0.Ast.head))
            (Ast.free_vars q.Ast.body)
        in
        Ast.exists extra q.Ast.body)
  in
  { q0 with Ast.body = Ast.disj (Ast.exists [] q0.Ast.body :: bodies) }

let random_fo rng db =
  let q1 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  let q2 = Workload.Random_db.random_cq rng db ~natoms:1 ~nvars:3 in
  let close head f =
    let extra = List.filter (fun v -> not (List.mem v head)) (Ast.free_vars f) in
    Ast.exists extra f
  in
  let body =
    if Random.State.bool rng then
      Ast.And (q1.Ast.body, Ast.Not (close q1.Ast.head q2.Ast.body))
    else
      match q1.Ast.head with
      | v :: _ ->
          Ast.And
            ( q1.Ast.body,
              Ast.Not (Ast.Cmp (Ast.Eq, Ast.Var v, Ast.Const (Value.Int 1))) )
      | [] -> Ast.And (q1.Ast.body, Ast.Not (close [] q2.Ast.body))
  in
  { q1 with Ast.body = body }

(* Scan plans must agree with the reference oracle. *)
let prop_scan_matches_legacy =
  QCheck.Test.make
    ~name:"CQ/UCQ/FO: scan plan = legacy eval"
    ~count:120 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let qs =
        [
          Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4;
          random_ucq rng db ~disjuncts:2;
          random_fo rng db;
        ]
      in
      List.for_all
        (fun q ->
          let reference = Oracle.eval db (Query.Fo q) in
          Relation.equal reference (Plan.run db (Plan.compile_fo db q)))
        qs)

let atom rel args = { Ast.rel; args = List.map (fun v -> Ast.Var v) args }

let tc_program =
  {
    Datalog.rules =
      [
        Datalog.rule (atom "reach" [ "x"; "y" ])
          [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule
          (atom "reach" [ "x"; "z" ])
          [
            Datalog.Rel (atom "reach" [ "x"; "y" ]);
            Datalog.Rel (atom "E" [ "y"; "z" ]);
          ];
      ];
    answer = "reach";
  }

let prop_scan_all_languages =
  QCheck.Test.make
    ~name:"Query.eval (scan route) = Query.eval_legacy, six languages"
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
      let g = Workload.Random_db.graph rng ~nodes:6 ~edges:10 in
      Relation.equal
        (Query.eval g (Query.Dl tc_program))
        (Oracle.eval g (Query.Dl tc_program)))

(* A join probes the joined relation's cached by-column index, and a write
   keeps that index: the run after an insert probes the maintained copy,
   with no index build in between. *)
let test_index_join_probes () =
  with_tracing @@ fun () ->
  let rng = Random.State.make [| 41 |] in
  let db = random_db rng in
  let q = Parser.parse_query "Q(x, z) := exists y. R(x, y) & S(y, z)" in
  let probed plan =
    let rec go n =
      match n.Plan.op with
      | Plan.Index_join (c, a, _) -> Some (c, a)
      | _ -> List.find_map go (Plan.children n)
    in
    match plan with
    | Plan.Answer { Plan.fp_disjuncts = [ d ]; _ } -> Option.get (go d.Plan.d_node)
    | _ -> Alcotest.fail "expected a one-disjunct answer plan"
  in
  let plan = Plan.compile_fo db q in
  check_int "one index join" 1 (Plan.shape plan).Plan.index_joins;
  let child, a = probed plan in
  (* the probe key: the first atom column the child binds *)
  let col =
    let rec go i = function
      | Ast.Var v :: _ when List.mem v child.Plan.nvars -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> Alcotest.fail "the index join shares no variable"
    in
    go 0 a.Ast.args
  in
  let legacy db = Oracle.eval db (Query.Fo q) in
  check "answer = legacy" true (Relation.equal (Plan.run db plan) (legacy db));
  check "probes ran" true (counter_value "plan.index_probes" >= 1);
  check "the probed relation caches its index" true
    (Relation.has_index_on (Database.find db a.Ast.rel) col);
  let db' =
    Database.insert_tuple a.Ast.rel
      (Tuple.of_list [ Value.Int 7; Value.Int 7 ])
      db
  in
  check "the write maintained the index" true
    (Relation.has_index_on (Database.find db' a.Ast.rel) col);
  check "answer after the write = legacy" true
    (Relation.equal (Plan.run db' (Plan.compile_fo db' q)) (legacy db'))

(* A constant position reads through the stored relation's by-column
   index — a selection, never a full pass — and a write keeps that index:
   the plan compiled before an insert answers like the oracle after it. *)
let test_const_reads_index () =
  with_tracing @@ fun () ->
  let rng = Random.State.make [| 47 |] in
  let db = random_db rng in
  let q = Parser.parse_query "Q(y) := R(2, y)" in
  let plan = Plan.compile_fo db q in
  check_int "one scan" 1 (Plan.shape plan).Plan.scans;
  let answer = Plan.run db plan in
  check "the constant ran as a selection" true
    (counter_value "plan.const_selects" >= 1);
  check_int "no full scan" 0 (counter_value "plan.full_scans");
  check "the stored relation caches its index" true
    (Relation.has_index_on (Database.find db "R") 0);
  let legacy db = Oracle.eval db (Query.Fo q) in
  check "answer = legacy" true (Relation.equal answer (legacy db));
  let db' = Database.insert_tuple "R" (Tuple.of_ints [ 2; 9 ]) db in
  check "the write maintained the index" true
    (Relation.has_index_on (Database.find db' "R") 0);
  Observe.reset ();
  let answer' = Plan.run db' plan in
  check_int "still no full scan" 0 (counter_value "plan.full_scans");
  check "the new row is selected" true (Relation.mem (Tuple.of_ints [ 9 ]) answer');
  check "answer after the write = legacy" true
    (Relation.equal answer' (legacy db'))

(* ---------- P-series negatives for leaf scans ---------- *)

let fixture_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "hub" [ "city" ]) [ [ 1 ]; [ 2 ] ];
      Relation.of_int_rows (Schema.make "E" [ "s"; "d" ]) [ [ 1; 2 ] ];
    ]

let raw_check text =
  Analysis.Plan_check.check ~db:fixture_db (Analysis.Plan_parse.parse text)

let has_code code =
  List.exists (fun d -> d.Analysis.Diagnostic.code = code)

let test_plan_check_negatives () =
  check "P009: a scan keeps an unbound variable" true
    (has_code "P009" (raw_check "answer Q(z)\n  scan hub(city) keep [z]"));
  check "P001 reaches scans" true
    (has_code "P001" (raw_check "answer Q(x)\n  scan nosuch(x)"));
  check "P002 reaches index joins" true
    (has_code "P002"
       (raw_check "answer Q(s)\n  index-join E(s)\n    scan hub(city)"));
  (* the well-typed forms pass, parser round-trips included *)
  check "well-typed covering scan is clean" true
    (Analysis.Plan_check.ok
       (raw_check
          "answer Q(s)\n\
          \  index-join E(s, d)\n\
          \    scan hub(city) keep [city]"));
  check "well-typed constant scan is clean" true
    (Analysis.Plan_check.ok (raw_check "answer Q(s)\n  scan E(s, 2)"))

(* compiled scan plans stay fully verified: typing, rewrite certificates,
   budget/fault lint and effects *)
let prop_scan_plans_verify =
  QCheck.Test.make ~name:"compiled scan plans pass Plan_check" ~count:60
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4 in
      let plan = Plan.compile_fo db q in
      Analysis.Plan_check.ok
        (Analysis.Plan_check.check ~db ~query:(Query.Fo q) plan))

(* ---------- explain: index joins and fused filtered scans ---------- *)

(* The "actual N" count on the first explain line containing [label]. *)
let actual_of ~label text =
  let line =
    List.find (contains ~sub:label) (String.split_on_char '\n' text)
  in
  let marker = "actual " in
  let rec find i =
    if String.sub line i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from line start ']' in
  int_of_string (String.sub line start (stop - start))

let test_explain_index_join () =
  let rng = Random.State.make [| 43 |] in
  let db = random_db rng in
  let q = Query.Fo (Parser.parse_query "Q(x, y, z) := R(x, y) & S(y, z)") in
  let text = Engine.explain db q in
  check "explain names the index join" true (contains ~sub:"index-join" text);
  check_int "the join's actual rows are the answer's"
    (Relation.cardinal (Oracle.eval db q))
    (actual_of ~label:"index-join" text);
  (* a filter over a leaf scan is fused into it, and both nodes still
     report what they did: the scan the rows its atom matched, the filter
     the rows that passed *)
  let q = Query.Fo (Parser.parse_query "Q(x, y) := R(x, y) & x < 2") in
  let text = Engine.explain db q in
  check_int "the fused scan reports every row of R"
    (Relation.cardinal (Database.find db "R"))
    (actual_of ~label:"scan R(x, y)" text);
  check_int "the filter reports the rows that passed"
    (Relation.cardinal (Oracle.eval db q))
    (actual_of ~label:"filter x < 2" text)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "scan"
    [
      ( "column",
        [
          Alcotest.test_case "store" `Quick test_column_store;
          Alcotest.test_case "bounds" `Quick test_column_bounds;
        ] );
      ( "stats",
        qsuite [ prop_incremental_counts ]
        @ [
            Alcotest.test_case "no-op add/remove keep the cache" `Quick
              test_noop_add_remove_keep_cache;
          ] );
      ( "differential",
        qsuite [ prop_scan_matches_legacy; prop_scan_all_languages ]
        @ [
            Alcotest.test_case "index-join probes" `Quick test_index_join_probes;
            Alcotest.test_case "constant reads the maintained index" `Quick
              test_const_reads_index;
          ] );
      ( "plan-check",
        qsuite [ prop_scan_plans_verify ]
        @ [ Alcotest.test_case "P009 negatives" `Quick test_plan_check_negatives ]
      );
      ( "explain",
        [
          Alcotest.test_case "index join, fused filter" `Quick
            test_explain_index_join;
        ] );
    ]
