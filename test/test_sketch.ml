(* SketchRefine tests: soundness of every approximate answer (checked via
   the instance's Validity view), the approximation-ratio floor against
   the exact oracle, mid-refine budget exhaustion, and agreement of an
   unexhausted budgeted solve with the plain one. *)

module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Paql_compile = Core.Paql_compile
module Validity = Core.Validity
module Budget = Robust.Budget

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db_of rows =
  Database.of_relations
    [ Relation.of_int_rows (Schema.make "R" [ "id"; "cost"; "val" ]) rows ]

let compile_str db src = Result.get_ok (Paql_compile.parse_and_compile db src)

let random_db rng ~n =
  db_of
    (List.init n (fun i ->
         [ i; 1 + Random.State.int rng 9; Random.State.int rng 8 ]))

(* knapsack-shaped: the family the 1/2-approximation floor covers *)
let random_query rng =
  let budget = 8 + Random.State.int rng 20 in
  let extra =
    if Random.State.bool rng then
      Printf.sprintf " AND COUNT(*) <= %d" (2 + Random.State.int rng 4)
    else ""
  in
  Printf.sprintf
    "SELECT PACKAGE(P) FROM R SUCH THAT SUM(cost) <= %d%s MAXIMIZE SUM(val)"
    budget extra

(* ---------- pipeline basics ---------- *)

let test_solve_basic () =
  let rng = Random.State.make [| 11 |] in
  let c = compile_str (random_db rng ~n:60) (random_query rng) in
  let o = Sketch.solve ~npartitions:5 c in
  (match o.Sketch.answer with
  | Some a ->
      check "answer satisfies the query" true
        (Paql_compile.satisfies c a.Paql_compile.package)
  | None -> Alcotest.fail "no answer on a satisfiable query");
  check_int "partitions" 5 o.Sketch.stats.Sketch.npartitions;
  check "refine touched some partition" true
    (o.Sketch.stats.Sketch.partitions_touched >= 0)

let test_solve_infeasible () =
  (* a nonempty package is forced (COUNT >= 1) but MAX(cost) <= 0 rules
     out every all-positive-cost tuple: nothing qualifies *)
  let db = db_of [ [ 1; 3; 4 ]; [ 2; 5; 1 ] ] in
  let c =
    compile_str db
      "SELECT PACKAGE(P) FROM R SUCH THAT COUNT(*) >= 1 AND MAX(cost) <= 0"
  in
  let o = Sketch.solve c in
  check "no answer" true (o.Sketch.answer = None);
  check "winner none" true (o.Sketch.stats.Sketch.winner = "none")

(* ---------- property (a): SketchRefine answers are Validity-valid ---------- *)

let prop_sketch_sound =
  QCheck.Test.make ~count:80
    ~name:"sketch: every answer satisfies all global constraints (Validity)"
    (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_range 20 200)))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let c = compile_str (random_db rng ~n) (random_query rng) in
      let o = Sketch.solve c in
      match o.Sketch.answer with
      | None -> true
      | Some a ->
          Paql_compile.satisfies c a.Paql_compile.package
          && Validity.valid c.Paql_compile.inst a.Paql_compile.package)

(* ---------- property (c): approximation ratio ≥ 1/2 ---------- *)

let ratios = ref []

let prop_sketch_ratio =
  QCheck.Test.make ~count:50
    ~name:"sketch: objective ≥ 1/2 of the exact optimum"
    (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_range 15 50)))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let c = compile_str (random_db rng ~n) (random_query rng) in
      match Paql_compile.solve_exact c with
      | None -> Sketch.(solve c).answer = None
      | Some exact when exact.Paql_compile.objective <= 0.0 -> true
      | Some exact -> (
          match Sketch.(solve c).answer with
          | None -> false
          | Some approx ->
              let r =
                approx.Paql_compile.objective /. exact.Paql_compile.objective
              in
              ratios := r :: !ratios;
              r >= 0.5))

let test_ratio_recorded () =
  (* runs after the property: record the observed floor/mean in the test
     output so regressions in quality (not just soundness) are visible *)
  match !ratios with
  | [] -> ()
  | rs ->
      let lo = List.fold_left Float.min infinity rs in
      let mean = List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs) in
      Printf.printf "sketch approx ratio: min %.3f mean %.3f over %d runs\n%!"
        lo mean (List.length rs);
      check "observed floor ≥ 0.5" true (lo >= 0.5)

(* ---------- mid-refine budget exhaustion is sound (satellite) ---------- *)

let test_budget_mid_refine_sound () =
  let rng = Random.State.make [| 42 |] in
  let c = compile_str (random_db rng ~n:120) (random_query rng) in
  (* sweep fuel so exhaustion lands at every stage of the pipeline,
     including mid-refine: a Partial payload must always be feasible *)
  let saw_partial = ref false in
  List.iter
    (fun fuel ->
      match Sketch.solve_budgeted ~budget:(Budget.make ~fuel ()) c with
      | Budget.Exact o -> (
          match o.Sketch.answer with
          | Some a ->
              check "exact-at-fuel answer feasible" true
                (Paql_compile.satisfies c a.Paql_compile.package)
          | None -> ())
      | Budget.Partial { best_so_far; _ } -> (
          saw_partial := true;
          match best_so_far with
          | Some a ->
              check "mid-pipeline partial is feasible" true
                (Paql_compile.satisfies c a.Paql_compile.package)
          | None -> ()))
    [ 1; 5; 20; 100; 500; 2_000; 10_000 ];
  check "some fuel level actually exhausted" true !saw_partial

(* ---------- budgeted solve = solve when the budget holds ---------- *)

(* The fallbacks are noted once, into the cell the partial payload reads;
   a budget that never runs out must leave the answer and every stat
   exactly as [solve] reports them. *)
let prop_budgeted_unexhausted_is_solve =
  QCheck.Test.make ~count:60 ~name:"unexhausted budgeted = solve"
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed %d, n %d" seed n)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 0 150)))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let c = compile_str (random_db rng ~n) (random_query rng) in
      match Sketch.solve_budgeted ~budget:(Budget.make ()) c with
      | Budget.Exact o -> o = Sketch.solve c
      | Budget.Partial _ -> false)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sketch"
    [
      ( "pipeline",
        [
          Alcotest.test_case "basic solve" `Quick test_solve_basic;
          Alcotest.test_case "infeasible query" `Quick test_solve_infeasible;
        ] );
      ( "properties",
        qsuite [ prop_sketch_sound; prop_sketch_ratio ]
        @ [ Alcotest.test_case "ratio floor recorded" `Quick test_ratio_recorded ]
      );
      ( "budget",
        [
          Alcotest.test_case "mid-refine exhaustion sound" `Quick
            test_budget_mid_refine_sound;
        ]
        @ qsuite [ prop_budgeted_unexhausted_is_solve ] );
    ]
