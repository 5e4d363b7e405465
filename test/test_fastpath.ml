(* Tests for the relational fast paths: the interning pool, by-column
   indexes and their invalidation, index-backed CQ joins, the per-instance candidate/compatibility memos, the one-pass Bindings.extend,
   and the deterministic multicore package search. *)

open Core
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Intern = Relational.Intern
module Pool = Parallel.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seed_gen = QCheck.make QCheck.Gen.(int_bound 1_000_000)

(* ---------- interning ---------- *)

let test_intern () =
  let v = Value.Int 123456 and w = Value.Str "fastpath-test" in
  let iv = Intern.id v and iw = Intern.id w in
  check "distinct values, distinct ids" true (iv <> iw);
  check_int "id is stable" iv (Intern.id v);
  check "value round trips" true (Value.equal v (Intern.value iv));
  check "find after id" true (Intern.find v = Some iv);
  let t = Tuple.of_list [ v; w; v ] in
  let packed = Intern.pack t in
  check "pack uses the same ids" true (packed = [| iv; iw; iv |]);
  check "pool size covers ids" true (Intern.size () > max iv iw)

(* ---------- indexes and invalidation ---------- *)

let abc = Schema.make "R" [ "a"; "b" ]
let tup a b = Tuple.of_ints [ a; b ]

let test_index_probe () =
  let r = Relation.of_int_rows abc [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ] ] in
  check_int "no index until asked" 0 (List.length (Relation.indexed_cols r));
  check_int "probe col 1 = 10" 2
    (List.length (Relation.select_eq r 1 (Value.Int 10)));
  check_int "probe col 1 = 20" 1
    (List.length (Relation.select_eq r 1 (Value.Int 20)));
  check "absent value" true (Relation.select_eq r 0 (Value.Int 99) = []);
  check "never-interned value" true
    (Relation.select_eq r 0 (Value.Str "never-interned-sentinel") = []);
  check "index col recorded" true (List.mem 1 (Relation.indexed_cols r));
  (* Probe results are the filter results, in tuple order. *)
  let probed = Relation.select_eq r 1 (Value.Int 10) in
  let filtered =
    Relation.to_list (Relation.filter (fun t -> Tuple.get t 1 = Value.Int 10) r)
  in
  check "probe = filter" true (probed = filtered)

let test_index_invalidation () =
  let r = Relation.of_int_rows abc [ [ 1; 10 ]; [ 2; 20 ] ] in
  ignore (Relation.select_eq r 1 (Value.Int 10));
  (* A derived relation must not see the parent's index... *)
  let r' = Relation.add (tup 3 10) r in
  check_int "add visible through fresh index" 2
    (List.length (Relation.select_eq r' 1 (Value.Int 10)));
  let r'' = Relation.remove (tup 1 10) r' in
  check_int "remove visible through fresh index" 1
    (List.length (Relation.select_eq r'' 1 (Value.Int 10)));
  (* ...and the parent keeps answering from its own tuples. *)
  check_int "parent unchanged" 1
    (List.length (Relation.select_eq r 1 (Value.Int 10)))

let prop_index_matches_filter =
  QCheck.Test.make ~name:"index probe = filter on random relations" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let r =
        Workload.Random_db.relation rng
          (Schema.make "R" [ "a"; "b"; "c" ])
          ~rows:30 ~domain:6
      in
      let col = Random.State.int rng 3 in
      let v = Value.Int (Random.State.int rng 6) in
      Relation.select_eq r col v
      = Relation.to_list (Relation.filter (fun t -> Tuple.get t col = v) r))

(* ---------- index-backed CQ evaluation ---------- *)

(* Every join runs as an index nested-loop join (by-column index probes on
   the bound variable); answers must equal the reference FO evaluator. *)
let prop_indexed_cq_agrees =
  QCheck.Test.make ~name:"random CQ: index probes = generic FO" ~count:80
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng
          ~specs:[ ("R", 2); ("S", 2); ("T", 1) ]
          ~rows:8 ~domain:4
      in
      let q = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4 in
      Relation.equal (Oracle.eval_query db q)
        (Qlang.Plan.run db (Qlang.Plan.compile_fo db q)))

(* ---------- candidate / compatibility memo ---------- *)

let random_instance seed =
  let rng = Random.State.make [| seed |] in
  let db =
    Workload.Random_db.database rng
      ~specs:[ ("R", 2); ("S", 2) ]
      ~rows:10 ~domain:4
  in
  let q = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  Instance.make ~db ~select:(Qlang.Query.Fo q) ~cost:Rating.card_or_infinite
    ~value:(Rating.sum_col ~nonneg:true 0) ~budget:3. ()

(* Q(D) through a new instance over the same database and query, so its
   memo starts empty: the oracle for "the memo is transparent". *)
let fresh_candidates inst =
  Instance.candidates
    (Instance.make ~db:inst.Instance.db ~select:inst.select ~dist:inst.dist
       ~cost:inst.cost ~value:inst.value ~budget:inst.budget ())

let prop_candidates_cached_eq_uncached =
  QCheck.Test.make ~name:"candidates: memoized = fresh evaluation" ~count:80
    seed_gen (fun seed ->
      let inst = random_instance seed in
      let cached = Instance.candidates inst in
      Relation.equal cached (fresh_candidates inst)
      (* Second read hits the memo and must not drift. *)
      && Relation.equal cached (Instance.candidates inst))

let test_memo_reset_on_update () =
  let inst = Workload.Teams.team_instance () in
  let before = Instance.candidates inst in
  (* Drop every expert: the adjusted instance must recompute Q(D) rather
     than serve the old memo. *)
  let empty_db =
    Database.of_relations
      [
        Relation.empty Workload.Teams.expert_schema;
        Relation.empty Workload.Teams.conflict_schema;
      ]
  in
  let inst' = Instance.with_db inst empty_db in
  check "original has candidates" false (Relation.is_empty before);
  check "with_db recomputes" true (Relation.is_empty (Instance.candidates inst'));
  let inst'' = Instance.with_select inst (Qlang.Query.Identity "conflict") in
  check "with_select recomputes" true
    (Relation.equal (Instance.candidates inst'') (fresh_candidates inst''))

let test_memo_compat () =
  (* Verdicts are kept with the constraint's resolved route; a negation
     sends this one to the delta route. *)
  let base = Workload.Teams.team_instance () in
  let inst =
    {
      base with
      Instance.compat =
        Instance.Compat_query
          (Qlang.Query.Fo
             (Qlang.Parser.parse_query
                "Qc() := exists e, sk, sal, sc. RQ(e, sk, sal, sc) & not (sal > 0)"));
    }
  in
  ignore (Instance.compat_route inst);
  let calls = ref 0 in
  let verdict () = incr calls; true in
  let p = Package.of_tuples [ tup 1 1 ] in
  check "first call computes" true (Instance.memo_compat inst p verdict);
  check "second call cached" true (Instance.memo_compat inst p verdict);
  check_int "compute ran once" 1 !calls

(* ---------- one-pass Bindings.extend ---------- *)

let prop_extend_cardinality =
  QCheck.Test.make
    ~name:"extend: |result| = |b| * |adom|^missing, vars merged" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nadom = 1 + Random.State.int rng 4 in
      let adom = List.init nadom (fun i -> Value.Int i) in
      let nrows = Random.State.int rng 5 in
      let rows =
        List.init nrows (fun _ ->
            Tuple.of_ints
              [ Random.State.int rng nadom; Random.State.int rng nadom ])
      in
      let b = Qlang.Bindings.make [ "x"; "z" ] rows in
      let b' = Qlang.Bindings.extend ~adom:(lazy adom) [ "w"; "y"; "x" ] b in
      let distinct = Qlang.Bindings.cardinal b in
      Qlang.Bindings.vars b' = [| "w"; "x"; "y"; "z" |]
      && Qlang.Bindings.cardinal b' = distinct * nadom * nadom)

let test_extend_values () =
  let adom = [ Value.Int 0; Value.Int 1 ] in
  let b = Qlang.Bindings.make [ "x" ] [ Tuple.of_ints [ 7 ] ] in
  let b' = Qlang.Bindings.extend ~adom:(lazy adom) [ "y" ] b in
  let expected =
    [
      [ ("x", Value.Int 7); ("y", Value.Int 0) ];
      [ ("x", Value.Int 7); ("y", Value.Int 1) ];
    ]
  in
  check "assignments enumerated" true
    (List.sort compare (Qlang.Bindings.assignments b')
    = List.sort compare expected)

(* ---------- domain pool ---------- *)

let test_pool_map () =
  check "default domains >= 1" true (Pool.default_domains () >= 1);
  let sq = Pool.map ~domains:4 20 (fun i -> i * i) in
  check "map preserves index order" true
    (sq = List.init 20 (fun i -> i * i));
  check "map with one domain" true
    (Pool.map ~domains:1 5 (fun i -> i) = [ 0; 1; 2; 3; 4 ]);
  check "map of zero items" true (Pool.map ~domains:4 0 (fun i -> i) = [])

let test_pool_find_first () =
  (* Several hits: the least index must win regardless of scheduling. *)
  let hits = [ 7; 3; 11 ] in
  let f i = if List.mem i hits then Some (i * 100) else None in
  check "least-index witness" true (Pool.find_first ~domains:4 16 f = Some 300);
  check "sequential agrees" true (Pool.find_first ~domains:1 16 f = Some 300);
  check "no hit" true (Pool.find_first ~domains:4 16 (fun _ -> None) = None)

let test_pool_exception () =
  match Pool.map ~domains:4 8 (fun i -> if i = 5 then failwith "boom" else i) with
  | exception Failure m -> check "worker exception propagates" true (m = "boom")
  | _ -> Alcotest.fail "expected Failure"

(* ---------- deterministic multicore search ---------- *)

let team_search_instance seed n =
  let rng = Random.State.make [| seed |] in
  let db = Workload.Teams.random_db rng ~nexperts:n ~nconflicts:(n / 2) in
  Instance.make ~db
    ~select:(Qlang.Query.Fo (Workload.Teams.experts_with_skill "backend"))
    ~compat:(Instance.Compat_query Workload.Teams.no_conflicts)
    ~cost:Workload.Teams.salary_cost ~value:Workload.Teams.score_value
    ~budget:1e9 ()

let prop_domains_deterministic =
  QCheck.Test.make ~name:"all_valid/search: domains=1 = domains=4" ~count:20
    seed_gen (fun seed ->
      let inst = team_search_instance seed 24 in
      let c1 = Exist_pack.ctx ~domains:1 inst in
      let c4 = Exist_pack.ctx ~domains:4 inst in
      let v1 = Exist_pack.all_valid c1 and v4 = Exist_pack.all_valid c4 in
      let bound = 10. in
      let s1 = Exist_pack.search c1 ~bound ()
      and s4 = Exist_pack.search c4 ~bound () in
      List.equal Package.equal v1 v4
      && Option.equal Package.equal s1 s4
      && Exist_pack.domains c4 = 4)

let prop_frp_domains_deterministic =
  QCheck.Test.make ~name:"Frp.enumerate: domains=1 = domains=4" ~count:10
    seed_gen (fun seed ->
      let inst = team_search_instance seed 20 in
      let r1 = Frp.enumerate ~ctx:(Exist_pack.ctx ~domains:1 inst) inst ~k:2 in
      let r4 = Frp.enumerate ~ctx:(Exist_pack.ctx ~domains:4 inst) inst ~k:2 in
      Option.equal (List.equal Package.equal) r1 r4)

(* ---------- SAT trail ---------- *)

(* Regression: a unit clause propagated at the root, then a branch whose
   first arm fails and whose second succeeds.  Flipping the decision must
   not unwind the propagated x1 (its clause is gone from the simplified
   clause set, so it could never be re-derived); a solver that over-unwinds
   returns a "model" with x1 unassigned/false that falsifies [[1]]. *)
let test_sat_unit_backtrack () =
  let cnf = Solvers.Cnf.make ~nvars:3 [ [ 1 ]; [ 2; 3 ]; [ -2; -3 ]; [ -2; 3 ] ] in
  match Solvers.Sat.solve cnf with
  | None -> Alcotest.fail "formula is satisfiable (x1, ~x2, x3)"
  | Some model ->
      check "returned model satisfies the formula" true
        (Solvers.Cnf.holds cnf model)

(* Random CNFs mixing 3-clauses with unit clauses, so unit propagation
   actually fires before decisions (pure random 3-SAT rarely exercises the
   propagate-then-backtrack interaction). *)
let prop_sat_trail_vs_bruteforce =
  QCheck.Test.make ~name:"DPLL with trail = brute force" ~count:150 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nvars = 3 + Random.State.int rng 4 in
      let clauses =
        List.init
          (2 + Random.State.int rng 8)
          (fun _ ->
            if Random.State.int rng 4 = 0 then
              [ Solvers.Gen.literal rng ~nvars ]
            else Solvers.Gen.clause3 rng ~nvars)
      in
      let cnf = Solvers.Cnf.make ~nvars clauses in
      let brute = Solvers.Cnf.brute_force_sat cnf in
      match Solvers.Sat.solve cnf with
      | Some model ->
          Option.is_some brute && Solvers.Cnf.holds cnf model
      | None -> Option.is_none brute)

let () =
  Alcotest.run "fastpath"
    [
      ( "intern",
        [ Alcotest.test_case "pool round trips" `Quick test_intern ] );
      ( "indexes",
        [
          Alcotest.test_case "probe" `Quick test_index_probe;
          Alcotest.test_case "invalidation on add/remove" `Quick
            test_index_invalidation;
          QCheck_alcotest.to_alcotest prop_index_matches_filter;
        ] );
      ( "indexed-cq",
        [ QCheck_alcotest.to_alcotest prop_indexed_cq_agrees ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_candidates_cached_eq_uncached;
          Alcotest.test_case "reset on with_db/with_select" `Quick
            test_memo_reset_on_update;
          Alcotest.test_case "compat verdict cached" `Quick test_memo_compat;
        ] );
      ( "extend",
        [
          QCheck_alcotest.to_alcotest prop_extend_cardinality;
          Alcotest.test_case "values enumerated" `Quick test_extend_values;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "find_first" `Quick test_pool_find_first;
          Alcotest.test_case "exceptions" `Quick test_pool_exception;
        ] );
      ( "domains",
        [
          QCheck_alcotest.to_alcotest prop_domains_deterministic;
          QCheck_alcotest.to_alcotest prop_frp_domains_deterministic;
        ] );
      ( "sat-trail",
        [
          Alcotest.test_case "unit propagation survives backtrack" `Quick
            test_sat_unit_backtrack;
          QCheck_alcotest.to_alcotest prop_sat_trail_vs_bruteforce;
        ] );
    ]
