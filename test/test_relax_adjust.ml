(* Tests for query relaxation (Section 7) and adjustment recommendations
   (Section 8): the relaxation machinery itself, the QRPP/ARPP decision
   procedures, their item variants, and the Theorem 7.2/8.1 reduction
   iffs. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Gen = Solvers.Gen
module Qbf = Solvers.Qbf
module Sat = Solvers.Sat
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let with_rng seed f = f (Random.State.make [| seed |])
let repeat n f = for seed = 1 to n do with_rng (seed * 91) f done

(* ---------- relaxation mechanics ---------- *)

let num_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "R" [ "a"; "b" ])
        [ [ 1; 10 ]; [ 2; 20 ]; [ 5; 50 ] ];
    ]

let dist = Qlang.Dist.add "num" Qlang.Dist.numeric Qlang.Dist.empty

let base_inst value =
  Instance.make ~db:num_db
    ~select:(Qlang.Query.Fo (Qlang.Parser.parse_query "Q(a, b) := R(a, b) & a = 1"))
    ~cost:Rating.card_or_infinite ~value ~budget:1. ~dist ()

let site_a1 = { Relax.kind = Relax.Const_site (Value.Int 1); dfun = "num" }

let test_gap_and_keep () =
  let r = [ (site_a1, Relax.Keep) ] in
  Alcotest.(check (float 1e-9)) "gap of keep" 0. (Relax.gap r);
  Alcotest.(check (float 1e-9)) "gap of widen" 4.
    (Relax.gap [ (site_a1, Relax.Widen 4.) ]);
  (* Keep leaves the query unchanged. *)
  let q = Qlang.Parser.parse_query "Q(a, b) := R(a, b) & a = 1" in
  check "keep is identity" true
    (Qlang.Ast.equal_formula (Relax.apply q r).Qlang.Ast.body q.Qlang.Ast.body)

let test_apply_const_site () =
  let q = Qlang.Parser.parse_query "Q(a, b) := R(a, b) & a = 1" in
  let q' = Relax.apply q [ (site_a1, Relax.Widen 1.) ] in
  (* a = 1 widened to |a - 1| <= 1: rows a ∈ {1, 2} — but row (1,10) was the
     only one before. *)
  let before = Oracle.eval_query ~dist num_db q in
  let after = Oracle.eval_query ~dist num_db q' in
  check_int "before" 1 (Relation.cardinal before);
  check_int "after" 2 (Relation.cardinal after);
  check "monotone" true (Relation.subset before after)

let test_apply_var_site () =
  (* Join breaking: Q(a) := R(a, x) & R(x, b) — x repeated.  With the
     discrete distance at level 1 the equijoin becomes free. *)
  let db =
    Database.of_relations
      [
        Relation.of_int_rows (Schema.make "R" [ "a"; "b" ])
          [ [ 1; 2 ]; [ 3; 4 ] ];
      ]
  in
  let dist = Qlang.Dist.add "disc" Qlang.Dist.discrete Qlang.Dist.empty in
  let q = Qlang.Parser.parse_query "Q(a, b) := exists x. R(a, x) & R(x, b)" in
  let site = { Relax.kind = Relax.Var_site "x"; dfun = "disc" } in
  let before = Oracle.eval_query ~dist db q in
  check_int "no join partner" 0 (Relation.cardinal before);
  let q' = Relax.apply q [ (site, Relax.Widen 1.) ] in
  let after = Oracle.eval_query ~dist db q' in
  (* the join became a cross product: 2 × 2 (a, b) pairs *)
  check_int "cartesian after break" 4 (Relation.cardinal after)

let test_apply_requires_prenex () =
  (* Constant sites work on any FO body (Theorem 7.2's FO row needs this)... *)
  let q = Qlang.Parser.parse_query "Q(a) := R(a, 1) & not (exists x. R(a, x) & x > 1)" in
  let q' = Relax.apply q [ (site_a1, Relax.Widen 1.) ] in
  check "constant relaxed under negation" true
    (not (Qlang.Ast.equal_formula q'.Qlang.Ast.body q.Qlang.Ast.body));
  (* ...but join-breaking still requires a prenex-existential body. *)
  let qv = Qlang.Parser.parse_query "Q(a) := not (exists x. R(a, x) & R(x, a))" in
  let site = { Relax.kind = Relax.Var_site "x"; dfun = "num" } in
  try
    ignore (Relax.apply qv [ (site, Relax.Widen 1.) ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_candidate_levels () =
  let inst = base_inst Rating.count in
  let levels = Relax.candidate_levels inst site_a1 ~max_gap:10. in
  (* |1 - a| for adom values {1,2,5,10,20,50}: 0(dropped),1,4,9,19,49 capped at 10 *)
  check "levels" true (levels = [ 1.; 4.; 9. ])

let test_relaxations_sorted () =
  let inst = base_inst Rating.count in
  let rs = Relax.relaxations inst ~sites:[ site_a1 ] ~max_gap:5. in
  check_int "keep + 2 widenings" 3 (List.length rs);
  let gaps = List.map Relax.gap rs in
  check "sorted by gap" true (gaps = List.sort compare gaps);
  check "first is all-keep" true (Relax.gap (List.hd rs) = 0.)

let test_qrpp_finds_minimum_gap () =
  (* Need a package with b >= 20: requires widening a by >= 1; minimal is 1. *)
  let value = Rating.max_col 1 in
  let inst = base_inst value in
  match Relax.qrpp inst ~sites:[ site_a1 ] ~k:1 ~bound:20. ~max_gap:10. with
  | None -> Alcotest.fail "expected a relaxation"
  | Some (r, _) -> Alcotest.(check (float 1e-9)) "minimal gap" 1. (Relax.gap r)

let test_qrpp_respects_max_gap () =
  (* b >= 50 needs widening by 4; with max_gap 2 it must fail. *)
  let value = Rating.max_col 1 in
  let inst = base_inst value in
  check "infeasible gap" true
    (Relax.qrpp inst ~sites:[ site_a1 ] ~k:1 ~bound:50. ~max_gap:2. = None);
  match Relax.qrpp inst ~sites:[ site_a1 ] ~k:1 ~bound:50. ~max_gap:4. with
  | Some (r, _) -> Alcotest.(check (float 1e-9)) "gap 4" 4. (Relax.gap r)
  | None -> Alcotest.fail "expected a relaxation at gap 4"

let test_qrpp_trivial_when_satisfied () =
  (* If the original query suffices, the all-Keep relaxation is returned. *)
  let inst = base_inst Rating.count in
  match Relax.qrpp inst ~sites:[ site_a1 ] ~k:1 ~bound:1. ~max_gap:10. with
  | Some (r, _) -> Alcotest.(check (float 1e-9)) "gap 0" 0. (Relax.gap r)
  | None -> Alcotest.fail "expected the trivial relaxation"

(* Relaxation is sound: widening can only add answers (w = c is always at
   distance 0 ≤ d, so QΓ(D) ⊇ Q(D)). *)
let prop_relaxation_grows_answers =
  QCheck.Test.make ~name:"relaxed queries only gain answers" ~count:50
    (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Database.of_relations
          [
            Relation.of_list (Schema.make "R" [ "a"; "b" ])
              (List.init 8 (fun _ ->
                   Tuple.of_ints
                     [ Random.State.int rng 6; Random.State.int rng 6 ]));
          ]
      in
      let c = Random.State.int rng 6 in
      let q =
        Qlang.Parser.parse_query
          (Printf.sprintf "Q(a, b) := R(a, b) & a = %d" c)
      in
      let site = { Relax.kind = Relax.Const_site (Value.Int c); dfun = "num" } in
      let d = float_of_int (Random.State.int rng 4) in
      let q' = Relax.apply q [ (site, Relax.Widen d) ] in
      let before = Oracle.eval_query ~dist db q in
      let after = Oracle.eval_query ~dist db q' in
      Relation.subset before after)

(* ---------- Theorem 7.2 reductions ---------- *)

let test_qrpp_sigma2 () =
  repeat 6 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:3 in
      let inst, sites, b, g = Reductions.Sigma2.qrpp_instance phi in
      check "Theorem 7.2 Σ₂ᵖ iff" (Qbf.Ea_dnf.solve phi)
        (Option.is_some (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g)))

let test_qrpp_np_data () =
  repeat 4 (fun rng ->
      let cnf = Gen.cnf3 rng ~nvars:4 ~nclauses:2 in
      let inst, sites, b, g = Reductions.Relax_np.instance cnf in
      check "Theorem 7.2 NP iff" (Sat.satisfiable cnf)
        (Option.is_some (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g)))

let test_qrpp_membership_fo () =
  repeat 6 (fun rng ->
      let qbf = Gen.qbf rng ~nvars:4 ~nclauses:4 in
      let inst, sites, b, g =
        Reductions.Relax_adjust_mem.qrpp_instance Reductions.Relax_adjust_mem.In_fo qbf
      in
      check "Theorem 7.2 FO/PSPACE iff" (Qbf.solve qbf)
        (Option.is_some (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g)))

let test_qrpp_membership_datalognr () =
  repeat 6 (fun rng ->
      let qbf = Gen.qbf rng ~nvars:4 ~nclauses:4 in
      let inst, sites, b, g =
        Reductions.Relax_adjust_mem.qrpp_instance
          Reductions.Relax_adjust_mem.In_datalognr qbf
      in
      check "Theorem 7.2 DATALOGnr iff" (Qbf.solve qbf)
        (Option.is_some (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g)))

let test_arpp_membership () =
  List.iter
    (fun lang ->
      repeat 4 (fun rng ->
          let qbf = Gen.qbf rng ~nvars:4 ~nclauses:4 in
          let inst, extra, b, k' =
            Reductions.Relax_adjust_mem.arpp_instance lang qbf
          in
          check "Theorem 8.1 membership iff" (Qbf.solve qbf)
            (Option.is_some
               (Adjust.arpp inst ~extra ~k:1 ~bound:b ~max_changes:k'))))
    [ Reductions.Relax_adjust_mem.In_fo; Reductions.Relax_adjust_mem.In_datalognr ]

(* QRPP for items (Corollary 7.3). *)
let test_qrpp_items () =
  let utility =
    {
      Items.u_name = "b";
      u_eval = (fun t -> float_of_int (Value.int_exn (Tuple.get t 1)));
    }
  in
  let it =
    Items.make ~db:num_db
      ~select:(Qlang.Query.Fo (Qlang.Parser.parse_query "Q(a, b) := R(a, b) & a = 1"))
      ~utility ~dist ()
  in
  (match Relax.qrpp_items it ~sites:[ site_a1 ] ~k:1 ~bound:20. ~max_gap:10. with
  | Some (r, _) -> Alcotest.(check (float 1e-9)) "items minimal gap" 1. (Relax.gap r)
  | None -> Alcotest.fail "expected a relaxation");
  check "items infeasible" true
    (Relax.qrpp_items it ~sites:[ site_a1 ] ~k:2 ~bound:50. ~max_gap:10. = None)

(* ---------- adjustments ---------- *)

let adj_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "R" [ "id"; "w" ]) [ [ 1; 3 ]; [ 2; 4 ] ];
    ]

let adj_extra =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "R" [ "id"; "w" ]) [ [ 3; 9 ]; [ 4; 7 ] ];
    ]

let adj_inst =
  Instance.make ~db:adj_db ~select:(Qlang.Query.Identity "R")
    ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
    ~budget:1. ()

let test_delta_apply () =
  let delta =
    [ Adjust.Del ("R", Tuple.of_ints [ 1; 3 ]); Adjust.Ins ("R", Tuple.of_ints [ 3; 9 ]) ]
  in
  let db' = Adjust.apply adj_db delta in
  check_int "size preserved" 2 (Database.size db');
  check "deleted" false (Relation.mem (Tuple.of_ints [ 1; 3 ]) (Database.find db' "R"));
  check "inserted" true (Relation.mem (Tuple.of_ints [ 3; 9 ]) (Database.find db' "R"));
  check_int "delta size" 2 (Adjust.size delta)

let test_possible_changes () =
  let cs = Adjust.possible_changes adj_db ~extra:adj_extra in
  (* 2 deletions + 2 insertions *)
  check_int "changes" 4 (List.length cs);
  (* inserting an existing tuple is not offered *)
  let extra_dup =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "id"; "w" ]) [ [ 1; 3 ] ] ]
  in
  check_int "no duplicate insert" 2
    (List.length (Adjust.possible_changes adj_db ~extra:extra_dup));
  let bad =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "S" [ "x" ]) [ [ 1 ] ] ]
  in
  try
    ignore (Adjust.possible_changes adj_db ~extra:bad);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_arpp_basics () =
  (* Already satisfiable: the empty adjustment is returned. *)
  (match Adjust.arpp adj_inst ~extra:adj_extra ~k:1 ~bound:4. ~max_changes:2 with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected the empty adjustment");
  (* Needs the 9-weight insert. *)
  (match Adjust.arpp adj_inst ~extra:adj_extra ~k:1 ~bound:9. ~max_changes:1 with
  | Some [ Adjust.Ins ("R", t) ] ->
      check "inserted the 9" true (Tuple.equal t (Tuple.of_ints [ 3; 9 ]))
  | _ -> Alcotest.fail "expected one insertion");
  (* Impossible even with 2 changes: no single item reaches 20. *)
  check "impossible" true
    (Adjust.arpp adj_inst ~extra:adj_extra ~k:1 ~bound:20. ~max_changes:2 = None);
  (* k = 3 singletons >= 4 needs both inserts. *)
  match Adjust.arpp adj_inst ~extra:adj_extra ~k:3 ~bound:4. ~max_changes:2 with
  | Some delta -> check_int "two changes" 2 (Adjust.size delta)
  | None -> Alcotest.fail "expected a 2-change adjustment"

let test_arpp_items () =
  let utility =
    {
      Items.u_name = "w";
      u_eval = (fun t -> float_of_int (Value.int_exn (Tuple.get t 1)));
    }
  in
  let it = Items.make ~db:adj_db ~select:(Qlang.Query.Identity "R") ~utility () in
  (match Adjust.arpp_items it ~extra:adj_extra ~k:2 ~bound:7. ~max_changes:2 with
  | Some delta -> check_int "two inserts" 2 (Adjust.size delta)
  | None -> Alcotest.fail "expected an adjustment");
  check "items impossible" true
    (Adjust.arpp_items it ~extra:adj_extra ~k:5 ~bound:1. ~max_changes:1 = None)

(* ---------- Theorem 8.1 reductions ---------- *)

let test_arpp_sigma2 () =
  repeat 5 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:3 in
      let inst, extra, b, k' = Reductions.Sigma2.arpp_instance phi in
      check "Theorem 8.1 Σ₂ᵖ iff" (Qbf.Ea_dnf.solve phi)
        (Option.is_some (Adjust.arpp inst ~extra ~k:1 ~bound:b ~max_changes:k')))

let test_arpp_np_data () =
  repeat 3 (fun rng ->
      let cnf = Gen.cnf3 rng ~nvars:3 ~nclauses:2 in
      let inst, extra, k, b, k' = Reductions.Adjust_np.instance cnf in
      check "Theorem 8.1 NP iff" (Sat.satisfiable cnf)
        (Option.is_some (Adjust.arpp inst ~extra ~k ~bound:b ~max_changes:k')))

let () =
  Alcotest.run "relax-adjust"
    [
      ( "relaxation",
        [
          Alcotest.test_case "gap and Keep" `Quick test_gap_and_keep;
          Alcotest.test_case "constant sites" `Quick test_apply_const_site;
          Alcotest.test_case "join breaking" `Quick test_apply_var_site;
          Alcotest.test_case "prenex requirement" `Quick test_apply_requires_prenex;
          Alcotest.test_case "candidate levels (D-equivalence)" `Quick
            test_candidate_levels;
          Alcotest.test_case "enumeration order" `Quick test_relaxations_sorted;
          QCheck_alcotest.to_alcotest prop_relaxation_grows_answers;
        ] );
      ( "qrpp",
        [
          Alcotest.test_case "minimum gap" `Quick test_qrpp_finds_minimum_gap;
          Alcotest.test_case "gap budget" `Quick test_qrpp_respects_max_gap;
          Alcotest.test_case "trivial relaxation" `Quick test_qrpp_trivial_when_satisfied;
          Alcotest.test_case "Theorem 7.2 (Σ₂ᵖ)" `Quick test_qrpp_sigma2;
          Alcotest.test_case "Theorem 7.2 (NP data)" `Quick test_qrpp_np_data;
          Alcotest.test_case "Theorem 7.2 (FO membership)" `Quick
            test_qrpp_membership_fo;
          Alcotest.test_case "Theorem 7.2 (DATALOGnr membership)" `Quick
            test_qrpp_membership_datalognr;
          Alcotest.test_case "Corollary 7.3 (items)" `Quick test_qrpp_items;
        ] );
      ( "adjustment",
        [
          Alcotest.test_case "delta application" `Quick test_delta_apply;
          Alcotest.test_case "possible changes" `Quick test_possible_changes;
          Alcotest.test_case "ARPP basics" `Quick test_arpp_basics;
          Alcotest.test_case "ARPP for items" `Quick test_arpp_items;
          Alcotest.test_case "Theorem 8.1 (Σ₂ᵖ)" `Quick test_arpp_sigma2;
          Alcotest.test_case "Theorem 8.1 (NP data)" `Slow test_arpp_np_data;
          Alcotest.test_case "Theorem 8.1 (membership, FO + DATALOGnr)" `Quick
            test_arpp_membership;
        ] );
    ]
