(* Cross-cutting (metamorphic) properties of the whole stack, plus direct
   tests of the binding-set engine underlying the evaluators. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let gen_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

(* ---------- monotonicity of positive languages ---------- *)

(* CQ/UCQ/Datalog are monotone: inserting a tuple never removes answers.
   (FO with negation is not — checked by a concrete counterexample.) *)
let prop_positive_monotone =
  QCheck.Test.make ~name:"positive queries are monotone under insertions"
    ~count:60 gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng ~specs:[ ("R", 2); ("S", 2) ] ~rows:6
          ~domain:4
      in
      let query = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:4 in
      let before = Oracle.eval_query db query in
      let extra =
        Tuple.of_ints [ Random.State.int rng 4; Random.State.int rng 4 ]
      in
      let db' = Database.insert_tuple "R" extra db in
      let after = Oracle.eval_query db' query in
      Relation.subset before after)

let prop_datalog_monotone =
  QCheck.Test.make ~name:"Datalog is monotone under insertions" ~count:40
    gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = Workload.Random_db.graph rng ~nodes:5 ~edges:7 in
      let tc =
        Qlang.Parser.parse_program
          "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z). ?- T."
      in
      let before = Oracle.eval_program db tc in
      let extra = Tuple.of_ints [ Random.State.int rng 5; Random.State.int rng 5 ] in
      let after = Oracle.eval_program (Database.insert_tuple "E" extra db) tc in
      Relation.subset before after)

let test_fo_not_monotone () =
  (* Q(x) := U(x) & not E(x, x): inserting E(1,1) removes answer 1. *)
  let u = Relation.of_int_rows (Schema.make "U" [ "a" ]) [ [ 1 ] ] in
  let e = Relation.empty (Schema.make "E" [ "a"; "b" ]) in
  let db = Database.of_relations [ u; e ] in
  let query = Qlang.Parser.parse_query "Q(x) := U(x) & not E(x, x)" in
  let before = Oracle.eval_query db query in
  let after =
    Oracle.eval_query (Database.insert_tuple "E" (Tuple.of_ints [ 1; 1 ]) db) query
  in
  check_int "before" 1 (Relation.cardinal before);
  check_int "after" 0 (Relation.cardinal after)

(* ---------- problem interplay ---------- *)

let random_instance seed =
  let rng = Random.State.make [| seed |] in
  let rel =
    Relation.of_list (Schema.make "R" [ "id"; "w" ])
      (List.init
         (3 + Random.State.int rng 4)
         (fun i -> Tuple.of_ints [ i; Random.State.int rng 6 ]))
  in
  Instance.make
    ~db:(Database.of_relations [ rel ])
    ~select:(Qlang.Query.Identity "R") ~cost:Rating.card_or_infinite
    ~value:(Rating.sum_col ~nonneg:true 1)
    ~budget:(float_of_int (1 + Random.State.int rng 2))
    ()

let prop_count_vs_bound =
  QCheck.Test.make ~name:"CPP count >= k iff MBP is_bound" ~count:60 gen_seed
    (fun seed ->
      let inst = random_instance seed in
      let k = 1 + (seed mod 3) in
      let bound = float_of_int (seed mod 8) in
      Mbp.is_bound inst ~k ~bound = (Cpp.count inst ~bound >= k))

let prop_budget_monotone =
  QCheck.Test.make ~name:"raising the budget never loses valid packages"
    ~count:60 gen_seed (fun seed ->
      let inst = random_instance seed in
      let inst' = { inst with Instance.budget = inst.Instance.budget +. 1. } in
      Cpp.count inst' ~bound:0. >= Cpp.count inst ~bound:0.)

let prop_bound_antitone =
  QCheck.Test.make ~name:"raising the rating bound never gains packages"
    ~count:60 gen_seed (fun seed ->
      let inst = random_instance seed in
      let b = float_of_int (seed mod 8) in
      Cpp.count inst ~bound:(b +. 1.) <= Cpp.count inst ~bound:b)

let prop_relax_gap_monotone =
  QCheck.Test.make ~name:"QRPP: feasible at gap g stays feasible at g' >= g"
    ~count:25 gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let phi = Solvers.Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:3 in
      let inst, sites, b, g = Reductions.Sigma2.qrpp_instance phi in
      match Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g with
      | None -> true
      | Some _ ->
          Option.is_some (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:(g +. 1.)))

let prop_adjust_changes_monotone =
  QCheck.Test.make ~name:"ARPP: feasible with k' changes stays feasible with more"
    ~count:20 gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let phi = Solvers.Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:3 in
      let inst, extra, b, k' = Reductions.Sigma2.arpp_instance phi in
      match Adjust.arpp inst ~extra ~k:1 ~bound:b ~max_changes:k' with
      | None -> true
      | Some delta ->
          Adjust.size delta <= k'
          && Option.is_some
               (Adjust.arpp inst ~extra ~k:1 ~bound:b ~max_changes:(k' + 1)))

let prop_frp_k_prefix =
  QCheck.Test.make ~name:"FRP: top-(k-1) is a prefix of top-k" ~count:50 gen_seed
    (fun seed ->
      let inst = random_instance seed in
      match Frp.enumerate inst ~k:3, Frp.enumerate inst ~k:2 with
      | Some l3, Some l2 ->
          List.for_all2 Package.equal l2 (List.filteri (fun i _ -> i < 2) l3)
      | None, _ -> true
      | Some _, None -> false)

(* ---------- the binding engine ---------- *)

module B = Qlang.Bindings

let b_of vars rows = B.make vars (List.map Tuple.of_ints rows)

(* Same variables and same rows ([B.rows] promises no order). *)
let b_equal a b =
  let sorted x = List.sort Tuple.compare (B.rows x) in
  B.vars a = B.vars b && List.equal Tuple.equal (sorted a) (sorted b)

let test_bindings_make_reorders () =
  (* columns follow sorted variable order regardless of input order *)
  let b = b_of [ "y"; "x" ] [ [ 10; 1 ]; [ 20; 2 ] ] in
  check "vars sorted" true (B.vars b = [| "x"; "y" |]);
  let b' = b_of [ "x"; "y" ] [ [ 1; 10 ]; [ 2; 20 ] ] in
  check "same set" true (b_equal b b')

let test_bindings_join () =
  let a = b_of [ "x"; "y" ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = b_of [ "y"; "z" ] [ [ 2; 5 ]; [ 9; 9 ] ] in
  let j = B.join a b in
  check "joined vars" true (B.vars j = [| "x"; "y"; "z" |]);
  check_int "joined rows" 1 (B.cardinal j);
  (* join with disjoint vars = product *)
  let c = b_of [ "w" ] [ [ 7 ]; [ 8 ] ] in
  check_int "product" 4 (B.cardinal (B.join a c));
  (* join with tt/ff *)
  check "tt neutral" true (b_equal (B.join a B.tt) a);
  check_int "ff annihilates" 0 (B.cardinal (B.join a B.ff))

let test_bindings_complement () =
  let adom = [ Value.Int 0; Value.Int 1; Value.Int 2 ] in
  let a = b_of [ "x" ] [ [ 0 ]; [ 2 ] ] in
  let c = B.complement ~adom:(lazy adom) a in
  check_int "complement" 1 (B.cardinal c);
  check "involutive" true (b_equal (B.complement ~adom:(lazy adom) (B.complement ~adom:(lazy adom) a)) a);
  check "nullary: not tt = ff" true (b_equal (B.complement ~adom:(lazy adom) B.tt) B.ff);
  check "nullary: not ff = tt" true (b_equal (B.complement ~adom:(lazy adom) B.ff) B.tt)

let test_bindings_project_extend () =
  let adom = [ Value.Int 0; Value.Int 1 ] in
  let a = b_of [ "x"; "y" ] [ [ 0; 1 ]; [ 1; 1 ] ] in
  let p = B.project [ "y" ] a in
  check "projected vars" true (B.vars p = [| "y" |]);
  check_int "projected rows dedup" 1 (B.cardinal p);
  let e = B.extend ~adom:(lazy adom) [ "z" ] a in
  check_int "extended rows" 4 (B.cardinal e);
  check "extend noop on present var" true (b_equal (B.extend ~adom:(lazy adom) [ "x" ] a) a)

let test_bindings_union_filter () =
  let adom = [ Value.Int 0; Value.Int 1 ] in
  let a = b_of [ "x" ] [ [ 0 ] ] in
  let b = b_of [ "y" ] [ [ 1 ] ] in
  let u = B.union ~adom:(lazy adom) a b in
  (* a extends to {0}×{0,1}, b to {0,1}×{1}: union = 3 pairs *)
  check_int "padded union" 3 (B.cardinal u);
  (* x is column 0 of the sorted variables [x; y] *)
  let f = B.filter (fun row -> Value.equal row.(0) (Value.Int 0)) u in
  check_int "filtered" 2 (B.cardinal f)

let test_bindings_assignments () =
  let a = b_of [ "x" ] [ [ 7 ] ] in
  check "assignments" true (B.assignments a = [ [ ("x", Value.Int 7) ] ])

let () =
  Alcotest.run "pipeline"
    [
      ( "monotonicity",
        [
          QCheck_alcotest.to_alcotest prop_positive_monotone;
          QCheck_alcotest.to_alcotest prop_datalog_monotone;
          Alcotest.test_case "FO is not monotone" `Quick test_fo_not_monotone;
        ] );
      ( "problem-interplay",
        [
          QCheck_alcotest.to_alcotest prop_count_vs_bound;
          QCheck_alcotest.to_alcotest prop_budget_monotone;
          QCheck_alcotest.to_alcotest prop_bound_antitone;
          QCheck_alcotest.to_alcotest prop_relax_gap_monotone;
          QCheck_alcotest.to_alcotest prop_adjust_changes_monotone;
          QCheck_alcotest.to_alcotest prop_frp_k_prefix;
        ] );
      ( "bindings",
        [
          Alcotest.test_case "canonical column order" `Quick test_bindings_make_reorders;
          Alcotest.test_case "join" `Quick test_bindings_join;
          Alcotest.test_case "complement" `Quick test_bindings_complement;
          Alcotest.test_case "project and extend" `Quick test_bindings_project_extend;
          Alcotest.test_case "union and filter" `Quick test_bindings_union_filter;
          Alcotest.test_case "assignments view" `Quick test_bindings_assignments;
        ] );
    ]
