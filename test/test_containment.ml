(* Tests for the Chandra–Merlin toolkit: CQ homomorphisms, containment,
   equivalence and minimization — cross-validated semantically against the
   evaluators on random databases. *)

module Relation = Relational.Relation
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let q = Qlang.Parser.parse_query
let atoms_of qq = (Qlang.Containment.of_query qq).Qlang.Containment.cq_atoms

let test_containment_basics () =
  (* A triangle-free path query contains the shorter path. *)
  let path2 = q "Q(x, z) := exists y. E(x, y) & E(y, z)" in
  let path3 = q "Q(x, w) := exists y, z. E(x, y) & E(y, z) & E(z, w)" in
  let triangle = q "Q(x, z) := exists y. E(x, y) & E(y, z) & E(z, x)" in
  check "path2 not ⊆ path3" false (Qlang.Containment.contained path2 path3);
  check "triangle ⊆ path2" true (Qlang.Containment.contained triangle path2);
  check "path2 not ⊆ triangle" false (Qlang.Containment.contained path2 triangle);
  check "self containment" true (Qlang.Containment.contained path2 path2);
  check "equivalent reflexive" true (Qlang.Containment.equivalent path3 path3)

let test_containment_with_constants () =
  let qa = q "Q(x) := E(x, 1)" in
  let qb = q "Q(x) := exists y. E(x, y)" in
  check "specific ⊆ general" true (Qlang.Containment.contained qa qb);
  check "general not ⊆ specific" false (Qlang.Containment.contained qb qa);
  let qc = q "Q(x) := E(x, 2)" in
  check "different constants incomparable" false (Qlang.Containment.contained qa qc)

let test_containment_builtins_sound () =
  let strict = q "Q(x) := exists y. E(x, y) & x < y" in
  let loose = q "Q(x) := exists y. E(x, y)" in
  check "filtered ⊆ unfiltered" true (Qlang.Containment.contained strict loose);
  check "unfiltered not ⊆ filtered" false (Qlang.Containment.contained loose strict)

let test_containment_rejects () =
  (try
     ignore (Qlang.Containment.contained (q "Q(x) := not E(x, x)") (q "Q(x) := E(x, x)"));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore
      (Qlang.Containment.contained (q "Q(x) := E(x, x)") (q "Q(x, y) := E(x, y)"));
    Alcotest.fail "expected arity error"
  with Invalid_argument _ -> ()

let test_minimize () =
  (* The redundant copy of an atom folds away. *)
  let redundant = q "Q(x) := exists y, z. E(x, y) & E(x, z)" in
  let m = Qlang.Containment.minimize redundant in
  check_int "one atom left" 1 (List.length (atoms_of m));
  check "still equivalent" true (Qlang.Containment.equivalent redundant m);
  (* A genuine path is not shrunk. *)
  let path = q "Q(x, z) := exists y. E(x, y) & E(y, z)" in
  check_int "path kept" 2
    (List.length (atoms_of (Qlang.Containment.minimize path)))

let test_minimize_keeps_constants () =
  (* E(x, y) ∧ E(x, 1): the second atom is NOT redundant (it constrains),
     and even a homomorphic fold must keep the constant alive. *)
  let qc = q "Q(x) := exists y. E(x, y) & E(x, 1)" in
  let m = Qlang.Containment.minimize qc in
  check "constant survives" true
    (List.mem (Relational.Value.Int 1)
       (Qlang.Ast.all_constants m.Qlang.Ast.body));
  check "equivalent" true (Qlang.Containment.equivalent qc m)

(* Semantic cross-check: contained q1 q2 = true must imply Q1(D) ⊆ Q2(D) on
   random databases; minimize must preserve answers exactly. *)
let prop_containment_sound =
  QCheck.Test.make ~name:"containment: syntactic ⊆ implies semantic ⊆" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng ~specs:[ ("R", 2); ("S", 2) ] ~rows:6
          ~domain:4
      in
      let q1 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
      let q2 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
      (* align head arities by reusing q1's head for q2 when they differ *)
      if List.length q1.Qlang.Ast.head <> List.length q2.Qlang.Ast.head then true
      else if not (Qlang.Containment.contained q1 q2) then true
      else
        Relation.subset
          (Oracle.eval_query db q1)
          (Oracle.eval_query db q2))

let prop_minimize_preserves_answers =
  QCheck.Test.make ~name:"minimize preserves answers on random databases"
    ~count:60 (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng ~specs:[ ("R", 2); ("S", 1) ] ~rows:6
          ~domain:4
      in
      let query = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:3 in
      let minimized = Qlang.Containment.minimize query in
      let a = Oracle.eval_query db query in
      let b = Oracle.eval_query db minimized in
      Relation.equal a b)

let prop_minimize_idempotent =
  QCheck.Test.make ~name:"minimize is idempotent" ~count:40
    (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Random_db.database rng ~specs:[ ("R", 2) ] ~rows:4 ~domain:3
      in
      let query = Workload.Random_db.random_cq rng db ~natoms:3 ~nvars:3 in
      let m1 = Qlang.Containment.minimize query in
      let m2 = Qlang.Containment.minimize m1 in
      List.length (atoms_of m1) = List.length (atoms_of m2))

let () =
  Alcotest.run "containment"
    [
      ( "containment",
        [
          Alcotest.test_case "basics" `Quick test_containment_basics;
          Alcotest.test_case "constants" `Quick test_containment_with_constants;
          Alcotest.test_case "built-ins (sound)" `Quick test_containment_builtins_sound;
          Alcotest.test_case "rejections" `Quick test_containment_rejects;
          QCheck_alcotest.to_alcotest prop_containment_sound;
        ] );
      ( "minimization",
        [
          Alcotest.test_case "folds redundancy" `Quick test_minimize;
          Alcotest.test_case "keeps constants alive" `Quick test_minimize_keeps_constants;
          QCheck_alcotest.to_alcotest prop_minimize_preserves_answers;
          QCheck_alcotest.to_alcotest prop_minimize_idempotent;
        ] );
    ]
