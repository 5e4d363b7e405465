(* Tests for the application workloads: the Example 1.1/7.1 travel domain,
   the course-package domain, the expert-team domain and the random
   generators — these double as integration tests of the whole stack
   (parser → evaluator → validity → solvers). *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Database = Relational.Database
open Core
open Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- travel ---------- *)

let test_travel_dataset () =
  check_int "flights" 10 (Relation.cardinal (Database.find Travel.db "flight"));
  check_int "pois" 8 (Relation.cardinal (Database.find Travel.db "poi"));
  (* the narrative invariant: no direct EDI→NYC on day 1, but EDI→EWR *)
  let direct day dest =
    Relation.cardinal
      (Oracle.eval_query Travel.db (Travel.direct_flights "edi" dest day))
  in
  check_int "no EDI→NYC day 1" 0 (direct 1 "nyc");
  check_int "EDI→EWR day 1" 1 (direct 1 "ewr");
  check_int "EDI→NYC day 3" 1 (direct 3 "nyc")

let test_travel_items () =
  let q = Travel.flights_upto_one_stop "edi" "nyc" 1 in
  check "UCQ" true (Qlang.Query.language (Qlang.Query.Fo q) = Qlang.Query.L_ucq);
  let it =
    Items.make ~db:Travel.db ~select:(Qlang.Query.Fo q)
      ~utility:Travel.flight_utility ()
  in
  let cands = Items.candidates it in
  (* three one-stop routes (via ams, cdg, lhr), no direct *)
  check_int "three itineraries" 3 (Relation.cardinal cands);
  match Items.topk it ~k:3 with
  | Some (best :: _) ->
      (* cheapest-fastest: via lhr (90+390) beats via ams (120+340)?
         utility = -(2*price + duration): lhr: -(2*480+600) = -1560;
         ams: -(2*460+660) = -1580 → lhr wins *)
      check "best via lhr" true
        (Value.equal (Tuple.get best 0) (Value.Str "FL106"))
  | _ -> Alcotest.fail "expected itineraries"

let test_travel_packages () =
  let inst = Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:3 () in
  check_int "candidates" 8 (Relation.cardinal (Instance.candidates inst));
  match Frp.enumerate inst ~k:2 with
  | Some ([ best; _ ] as sel) ->
      check "certified" true (Rpp.is_topk inst sel);
      (* compatibility: never more than two museums *)
      let museums p =
        List.length
          (List.filter
             (fun t -> Value.equal (Tuple.get t 3) (Value.Str "museum"))
             (Package.to_list p))
      in
      check "≤ 2 museums" true (List.for_all (fun p -> museums p <= 2) sel);
      (* budget respected *)
      check "within budget" true
        (Rating.eval inst.Instance.cost best <= inst.Instance.budget);
      (* one flight per plan *)
      let flights p =
        List.sort_uniq Value.compare
          (List.map (fun t -> Tuple.get t 0) (Package.to_list p))
      in
      check "one flight" true (List.for_all (fun p -> List.length (flights p) = 1) sel)
  | _ -> Alcotest.fail "expected two plans"

let test_travel_museum_constraint_bites () =
  (* With a generous budget and museum-heavy value, an incompatible package
     would otherwise win: check that 3-museum packages are rejected. *)
  let inst = Travel.package_instance ~budget:2000. ~orig:"edi" ~dest:"nyc" ~day:3 () in
  let three_museums =
    Package.of_tuples
      [
        Tuple.of_list
          [ Value.Str "FL101"; Value.Int 380; Value.Str "MoMA"; Value.Str "museum";
            Value.Int 25; Value.Int 180 ];
        Tuple.of_list
          [ Value.Str "FL101"; Value.Int 380; Value.Str "Met"; Value.Str "museum";
            Value.Int 30; Value.Int 240 ];
        Tuple.of_list
          [ Value.Str "FL101"; Value.Int 380; Value.Str "Guggenheim";
            Value.Str "museum"; Value.Int 25; Value.Int 150 ];
      ]
  in
  check "in Q(D)" true
    (Package.subset_of_relation three_museums (Instance.candidates inst));
  check "rejected by Qc" false (Validity.compatible inst three_museums);
  let two_museums =
    Package.of_tuples (List.filteri (fun i _ -> i < 2) (Package.to_list three_museums))
  in
  check "two museums fine" true (Validity.compatible inst two_museums)

let test_travel_relaxation_scenario () =
  let inst = Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:1 () in
  check_int "original finds nothing" 0 (Relation.cardinal (Instance.candidates inst));
  let sites =
    [
      { Relax.kind = Relax.Const_site (Value.Str "nyc"); dfun = "city" };
      { Relax.kind = Relax.Const_site (Value.Int 1); dfun = "days" };
    ]
  in
  match Relax.qrpp inst ~sites ~k:1 ~bound:150. ~max_gap:20. with
  | None -> Alcotest.fail "expected a relaxation"
  | Some (r, q') ->
      check "positive gap" true (Relax.gap r > 0.);
      let inst' = Instance.with_select inst (Qlang.Query.Fo q') in
      check "relaxed query has candidates" true
        (Relation.cardinal (Instance.candidates inst') > 0)

let test_travel_random_db () =
  let rng = Random.State.make [| 4 |] in
  let db = Travel.random_db rng ~ncities:5 ~nflights:30 ~npois:20 in
  check_int "flights" 30 (Relation.cardinal (Database.find db "flight"));
  check_int "pois" 20 (Relation.cardinal (Database.find db "poi"));
  (* flights never loop *)
  check "no self loops" true
    (Relation.for_all
       (fun t -> not (Value.equal (Tuple.get t 1) (Tuple.get t 2)))
       (Database.find db "flight"))

(* ---------- courses ---------- *)

let test_course_plans () =
  let inst = Courses.plan_instance ~credit_budget:30. () in
  match Frp.enumerate inst ~k:3 with
  | Some sel ->
      check "certified" true (Rpp.is_topk inst sel);
      (* prerequisite closure: db201 implies db101 etc. *)
      let has p cid =
        List.exists
          (fun t -> Value.equal (Tuple.get t 0) (Value.Str cid))
          (Package.to_list p)
      in
      check "closure" true
        (List.for_all
           (fun p ->
             (not (has p "db201") || has p "db101")
             && (not (has p "db301") || has p "db201")
             && (not (has p "ml201") || (has p "ml101" && has p "th101")))
           sel)
  | None -> Alcotest.fail "expected three plans"

let test_course_fo_vs_fn_constraint () =
  (* Corollary 6.3: FO constraint and the PTIME function agree on all
     packages of the catalog. *)
  let inst_fo = Courses.plan_instance () in
  let inst_fn = { inst_fo with Instance.compat = Courses.prereq_closed_fn } in
  let c = Exist_pack.ctx inst_fo in
  let cands = Exist_pack.candidates c in
  (* sample: all singletons and pairs *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let p = Package.of_tuples [ a; b ] in
          check "constraints agree" (Validity.compatible inst_fo p)
            (Validity.compatible inst_fn p))
        cands)
    cands

let test_course_prereq_violation () =
  let inst = Courses.plan_instance () in
  let course cid =
    Relation.to_list
      (Relation.filter
         (fun t -> Value.equal (Tuple.get t 0) (Value.Str cid))
         (Database.find Courses.db "course"))
  in
  let p = Package.of_tuples (course "db301") in
  check "missing prerequisites rejected" false (Validity.compatible inst p);
  let closed = Package.of_tuples (course "db301" @ course "db201" @ course "db101") in
  check "closed plan accepted" true (Validity.compatible inst closed)

(* ---------- teams ---------- *)

let test_team_conflicts () =
  let inst = Teams.team_instance () in
  let expert eid =
    Relation.to_list
      (Relation.filter
         (fun t -> Value.equal (Tuple.get t 0) (Value.Str eid))
         (Database.find Teams.db "expert"))
  in
  let conflicted = Package.of_tuples (expert "ada" @ expert "alan") in
  check "conflict rejected" false (Validity.compatible inst conflicted);
  let fine = Package.of_tuples (expert "ada" @ expert "barbara") in
  check "no conflict fine" true (Validity.compatible inst fine);
  (* symmetry: the constraint checks both orientations *)
  let conflicted2 = Package.of_tuples (expert "donald" @ expert "grace") in
  check "reverse orientation rejected" false (Validity.compatible inst conflicted2)

let test_team_topk_and_adjustment () =
  let inst = { (Teams.team_instance ()) with Instance.budget = 320. } in
  (match Frp.enumerate inst ~k:1 with
  | Some [ best ] ->
      check "best team below 26" true (Rating.eval inst.Instance.value best < 26.)
  | _ -> Alcotest.fail "expected a team");
  match Adjust.arpp inst ~extra:Teams.candidate_pool ~k:1 ~bound:26. ~max_changes:1 with
  | Some delta ->
      check_int "single change" 1 (Adjust.size delta);
      let inst' = Instance.with_db inst (Adjust.apply inst.Instance.db delta) in
      let c = Exist_pack.ctx inst' in
      check "now achievable" true
        (Option.is_some (Exist_pack.search c ~bound:26. ()))
  | None -> Alcotest.fail "expected an adjustment"

let test_team_sp_query () =
  let q = Teams.experts_with_skill "backend" in
  check "SP" true (Qlang.Fragment.classify_query q = Qlang.Fragment.Sp);
  let fq = Qlang.Query.Fo q in
  check "one certified scan" true
    (Analysis.Advisor.certificate_ok
       (Analysis.Plan_check.certify fq (Qlang.Query.plan Teams.db fq)));
  let a = Qlang.Query.eval Teams.db fq in
  check "agrees with the oracle" true (Relation.equal a (Oracle.eval_query Teams.db q));
  check_int "two backend experts" 2 (Relation.cardinal a)

(* ---------- random generators ---------- *)

let test_random_db_shapes () =
  let rng = Random.State.make [| 9 |] in
  let db = Random_db.database rng ~specs:[ ("A", 2); ("B", 3) ] ~rows:10 ~domain:4 in
  check "A present" true (Database.mem db "A");
  check_int "B arity" 3 (Relation.arity (Database.find db "B"));
  let g = Random_db.graph rng ~nodes:5 ~edges:8 in
  check "graph" true (Relation.cardinal (Database.find g "E") <= 8);
  let cq = Random_db.random_cq rng db ~natoms:3 ~nvars:4 in
  check "random CQ classifies within UCQ" true
    Qlang.Fragment.(leq (Qlang.Fragment.classify_query cq) Ucq)

let test_courses_random_acyclic () =
  let rng = Random.State.make [| 21 |] in
  let db = Courses.random_db rng ~ncourses:10 ~nprereqs:12 in
  (* prerequisite edges point from higher ids to lower: acyclic *)
  let num s = int_of_string (String.sub s 1 (String.length s - 1)) in
  check "acyclic prereqs" true
    (Relation.for_all
       (fun t ->
         num (Value.str_exn (Tuple.get t 0)) > num (Value.str_exn (Tuple.get t 1)))
       (Database.find db "prereq"))

let () =
  Alcotest.run "workload"
    [
      ( "travel",
        [
          Alcotest.test_case "dataset invariants" `Quick test_travel_dataset;
          Alcotest.test_case "item recommendation" `Quick test_travel_items;
          Alcotest.test_case "package recommendation" `Quick test_travel_packages;
          Alcotest.test_case "museum constraint" `Quick test_travel_museum_constraint_bites;
          Alcotest.test_case "relaxation scenario" `Quick test_travel_relaxation_scenario;
          Alcotest.test_case "random generator" `Quick test_travel_random_db;
        ] );
      ( "courses",
        [
          Alcotest.test_case "degree plans" `Quick test_course_plans;
          Alcotest.test_case "FO = PTIME constraint" `Quick test_course_fo_vs_fn_constraint;
          Alcotest.test_case "prerequisite violations" `Quick test_course_prereq_violation;
          Alcotest.test_case "random catalogs acyclic" `Quick test_courses_random_acyclic;
        ] );
      ( "teams",
        [
          Alcotest.test_case "conflict constraint" `Quick test_team_conflicts;
          Alcotest.test_case "top-k and adjustment" `Quick test_team_topk_and_adjustment;
          Alcotest.test_case "SP skill query" `Quick test_team_sp_query;
        ] );
      ( "generators",
        [ Alcotest.test_case "shapes" `Quick test_random_db_shapes ] );
    ]
