(* Every lower-bound reduction of the paper, executed and cross-validated
   against the independent logic solvers: for random instances, the logic
   side and the recommendation side of each theorem's "iff" must agree. *)

module Qbf = Solvers.Qbf
module Cnf = Solvers.Cnf
module Gen = Solvers.Gen
module Sat = Solvers.Sat
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_rng seed f = f (Random.State.make [| seed |])

(* ---------- Figure 4.1 gadgets ---------- *)

let test_gadget_relations () =
  check_int "I01" 2 (Relational.Relation.cardinal Reductions.Gadgets.r01);
  check_int "I∨" 4 (Relational.Relation.cardinal Reductions.Gadgets.ror);
  check_int "I∧" 4 (Relational.Relation.cardinal Reductions.Gadgets.rand);
  check_int "I¬" 2 (Relational.Relation.cardinal Reductions.Gadgets.rnot);
  (* truth-table semantics *)
  let row b a1 a2 = Relational.Tuple.of_ints [ b; a1; a2 ] in
  List.iter
    (fun (a1, a2) ->
      check "or row" true
        (Relational.Relation.mem
           (row (if a1 = 1 || a2 = 1 then 1 else 0) a1 a2)
           Reductions.Gadgets.ror);
      check "and row" true
        (Relational.Relation.mem
           (row (if a1 = 1 && a2 = 1 then 1 else 0) a1 a2)
           Reductions.Gadgets.rand))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* The CQ encodings of formulas agree with direct evaluation: for every
   assignment (as a package of the product query), the encoded output bit
   matches Cnf/Dnf.holds. *)
let test_gadget_encoders () =
  with_rng 5 (fun rng ->
      for _ = 1 to 5 do
        let cnf = Gen.cnf3 rng ~nvars:3 ~nclauses:3 in
        let g = Reductions.Gadgets.gen () in
        let out, conjs =
          Reductions.Gadgets.encode_cnf g ~var_of:Reductions.Gadgets.xvar cnf
        in
        let xs = [ "x1"; "x2"; "x3" ] in
        let q =
          {
            Qlang.Ast.name = "Q";
            head = xs @ [ out ];
            body =
              Qlang.Ast.conj (Reductions.Gadgets.assign_all xs @ conjs);
          }
        in
        let ans = Oracle.eval_query Reductions.Gadgets.db q in
        Seq.iter
          (fun a ->
            let expected = Cnf.holds cnf a in
            let tup =
              Relational.Tuple.of_list
                (List.map
                   (fun v -> Relational.Value.of_bit v)
                   [ a.(1); a.(2); a.(3); expected ])
            in
            check "cnf encoding row" true (Relational.Relation.mem tup ans);
            (* and the complementary bit must be absent *)
            let bad =
              Relational.Tuple.of_list
                (List.map Relational.Value.of_bit
                   [ a.(1); a.(2); a.(3); not expected ])
            in
            check "cnf encoding functional" false (Relational.Relation.mem bad ans))
          (Cnf.assignments 3)
      done)

let test_gadget_dnf_encoder () =
  with_rng 11 (fun rng ->
      let dnf = Gen.dnf3 rng ~nvars:3 ~nterms:2 in
      let g = Reductions.Gadgets.gen () in
      let out, conjs =
        Reductions.Gadgets.encode_dnf g ~var_of:Reductions.Gadgets.xvar dnf
      in
      let xs = [ "x1"; "x2"; "x3" ] in
      let q =
        {
          Qlang.Ast.name = "Q";
          head = xs @ [ out ];
          body = Qlang.Ast.conj (Reductions.Gadgets.assign_all xs @ conjs);
        }
      in
      let ans = Oracle.eval_query Reductions.Gadgets.db q in
      check_int "one row per assignment" 8 (Relational.Relation.cardinal ans);
      Seq.iter
        (fun a ->
          let tup =
            Relational.Tuple.of_list
              (List.map Relational.Value.of_bit
                 [ a.(1); a.(2); a.(3); Solvers.Dnf.holds dnf a ])
          in
          check "dnf row" true (Relational.Relation.mem tup ans))
        (Cnf.assignments 3))

(* ---------- the reduction iffs ---------- *)

let repeat n f = for seed = 1 to n do with_rng (seed * 37) f done

let test_compat_sigma2 () =
  repeat 12 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:3 in
      let inst = Reductions.Sigma2.compat_instance phi in
      check "Lemma 4.2 iff"
        (Qbf.Ea_dnf.solve phi)
        (Reductions.Sigma2.compat_holds inst ~bound:0.))

let test_rpp_pi2 () =
  repeat 8 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:3 in
      let inst, pkgs = Reductions.Sigma2.rpp_instance phi in
      check "Theorem 4.1 iff" (Qbf.Ea_dnf.solve phi) (not (Rpp.is_topk inst pkgs)))

let test_frp_sigma2max_enumerate () =
  repeat 8 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:3 ~n:2 ~nterms:3 in
      let inst = Reductions.Sigma2.frp_instance phi in
      let expected =
        Option.map
          (fun xa -> [ Reductions.Sigma2.witness_package phi xa ])
          (Qbf.Ea_dnf.last_witness phi)
      in
      let got = Frp.enumerate inst ~k:1 in
      check "Theorem 5.1 maximum-Σ₂ᵖ iff" true
        (match expected, got with
        | None, None -> true
        | Some [ e ], Some [ g ] -> Package.equal e g
        | _ -> false))

let test_frp_sigma2max_oracle () =
  repeat 4 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:3 ~n:2 ~nterms:3 in
      let inst = Reductions.Sigma2.frp_instance phi in
      let lo, hi = Reductions.Sigma2.frp_val_range phi in
      let expected =
        Option.map
          (fun xa -> [ Reductions.Sigma2.witness_package phi xa ])
          (Qbf.Ea_dnf.last_witness phi)
      in
      let got = Frp.oracle inst ~k:1 ~val_lo:lo ~val_hi:hi in
      check "oracle algorithm on the Σ₂ᵖ family" true
        (match expected, got with
        | None, None -> true
        | Some [ e ], Some [ g ] -> Package.equal e g
        | _ -> false))

let test_compat_np () =
  repeat 12 (fun rng ->
      let cnf = Gen.cnf3 rng ~nvars:4 ~nclauses:5 in
      let inst = Reductions.Np_data.compat_instance cnf in
      check "Lemma 4.4 iff" (Sat.satisfiable cnf)
        (Reductions.Sigma2.compat_holds inst
           ~bound:(Reductions.Np_data.compat_bound cnf)))

let test_rpp_conp_data () =
  repeat 8 (fun rng ->
      let cnf = Gen.cnf3 rng ~nvars:4 ~nclauses:4 in
      let inst, pkgs = Reductions.Np_data.rpp_instance cnf in
      check "Theorem 4.3 iff" (Sat.satisfiable cnf) (not (Rpp.is_topk inst pkgs)))

let test_rpp_dp () =
  repeat 6 (fun rng ->
      let phi1 = Gen.cnf3 rng ~nvars:3 ~nclauses:4 in
      let phi2 = Gen.cnf3 rng ~nvars:3 ~nclauses:6 in
      let inst, pkgs = Reductions.Satunsat.rpp_instance phi1 phi2 in
      check "Theorem 4.5 iff"
        (Sat.satisfiable phi1 && not (Sat.satisfiable phi2))
        (Rpp.is_topk inst pkgs))

let test_frp_maxsat () =
  repeat 6 (fun rng ->
      let mi = Gen.maxsat rng ~nvars:4 ~nclauses:4 ~max_weight:10 in
      let inst = Reductions.Np_data.maxsat_instance mi in
      let opt, _ = Solvers.Maxsat.solve mi in
      let got =
        match Frp.enumerate inst ~k:1 with
        | Some [ p ] -> int_of_float (Rating.eval inst.Instance.value p)
        | _ -> -1
      in
      check_int "Theorem 5.1 FPᴺᴾ iff" opt got)

let test_frp_maxsat_oracle () =
  repeat 3 (fun rng ->
      let mi = Gen.maxsat rng ~nvars:4 ~nclauses:3 ~max_weight:6 in
      let inst = Reductions.Np_data.maxsat_instance mi in
      let lo, hi = Reductions.Np_data.maxsat_val_range mi in
      let opt, _ = Solvers.Maxsat.solve mi in
      let got =
        match Frp.oracle inst ~k:1 ~val_lo:lo ~val_hi:hi with
        | Some [ p ] -> int_of_float (Rating.eval inst.Instance.value p)
        | _ -> -1
      in
      check_int "oracle algorithm on MAX-WEIGHT SAT" opt got)

let test_mbp_d2p () =
  repeat 5 (fun rng ->
      let phi1 = Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:2 in
      let phi2 = Gen.ea_dnf rng ~m:2 ~n:2 ~nterms:2 in
      let inst, b = Reductions.Mbp_pair.instance phi1 phi2 in
      check "Theorem 5.2 D₂ᵖ iff"
        (Qbf.Pair.solve { Qbf.Pair.phi1; phi2 })
        (Mbp.is_max_bound inst ~k:1 ~bound:b))

let test_mbp_dp_data () =
  repeat 6 (fun rng ->
      let phi1 = Gen.cnf3 rng ~nvars:3 ~nclauses:3 in
      let phi2 = Gen.cnf3 rng ~nvars:3 ~nclauses:6 in
      let inst, b = Reductions.Satunsat.mbp_instance phi1 phi2 in
      check "Theorem 5.2 DP iff"
        (Sat.satisfiable phi1 && not (Sat.satisfiable phi2))
        (Mbp.is_max_bound inst ~k:1 ~bound:b))

let test_cpp_pi1 () =
  repeat 5 (fun rng ->
      let psi = Gen.dnf3 rng ~nvars:4 ~nterms:3 in
      let inst, b = Reductions.Counting.pi1_instance ~nx:2 ~ny:2 psi in
      check_int "Theorem 5.3 #Π₁SAT parsimony"
        (Solvers.Count.sharp_pi1 ~nx:2 ~ny:2 psi)
        (Cpp.count inst ~bound:b))

let test_cpp_sigma1 () =
  repeat 5 (fun rng ->
      let psi = Gen.cnf3 rng ~nvars:4 ~nclauses:3 in
      let inst, b = Reductions.Counting.sigma1_instance ~nx:2 ~ny:2 psi in
      check_int "Theorem 5.3 #Σ₁SAT parsimony"
        (Solvers.Count.sharp_sigma1 ~nx:2 ~ny:2 psi)
        (Cpp.count inst ~bound:b))

let test_cpp_sharpsat () =
  repeat 6 (fun rng ->
      let cnf = Gen.cnf3 rng ~nvars:4 ~nclauses:3 in
      let inst, b, mult = Reductions.Np_data.sharpsat_instance cnf in
      check_int "Theorem 5.3 #SAT parsimony"
        (Solvers.Count.count_models cnf)
        (mult * Cpp.count inst ~bound:b))

let test_membership_fo () =
  repeat 8 (fun rng ->
      let qbf = Gen.qbf rng ~nvars:4 ~nclauses:4 in
      let db, q = Reductions.Membership.qbf_to_fo qbf in
      let inst, pkgs =
        Reductions.Membership.rpp_of_query db (Qlang.Query.Fo q) [||]
      in
      check "Theorem 4.1 FO membership iff" (Qbf.solve qbf) (Rpp.is_topk inst pkgs);
      (* and the MBP variant (Theorem 5.2) *)
      check "Theorem 5.2 FO membership iff" (Qbf.solve qbf)
        (Mbp.is_max_bound inst ~k:1 ~bound:1.))

let test_membership_datalognr () =
  repeat 8 (fun rng ->
      let qbf = Gen.qbf rng ~nvars:4 ~nclauses:4 in
      let db, prog = Reductions.Membership.qbf_to_datalognr qbf in
      check "program is nonrecursive" true (Qlang.Datalog.is_nonrecursive prog);
      let inst, pkgs =
        Reductions.Membership.rpp_of_query db (Qlang.Query.Dl prog) [||]
      in
      check "Theorem 4.1 DATALOGnr membership iff" (Qbf.solve qbf)
        (Rpp.is_topk inst pkgs))

let test_membership_datalog_tc () =
  (* Recursive Datalog membership: reachability on a chain. *)
  let db = Reductions.Membership.chain_db 5 in
  let reachable = Relational.Tuple.of_ints [ 0; 5 ] in
  let not_reachable = Relational.Tuple.of_ints [ 5; 0 ] in
  let check_mem t expected =
    let inst, pkgs =
      Reductions.Membership.rpp_of_query db
        (Qlang.Query.Dl Reductions.Membership.tc_program)
        t
    in
    check "DATALOG membership iff" expected (Rpp.is_topk inst pkgs)
  in
  check_mem reachable true;
  check_mem not_reachable false

let test_multi_qbf_frp () =
  repeat 5 (fun rng ->
      let qbfs =
        List.init 3 (fun _ -> Gen.qbf rng ~nvars:3 ~nclauses:3)
      in
      let inst, (lo, hi), expected = Reductions.Membership.multi_qbf_frp qbfs in
      (match Frp.enumerate inst ~k:1 with
      | Some [ got ] -> check "FPSPACE(poly) bit string (enumerate)" true
          (Package.equal got expected)
      | _ -> Alcotest.fail "expected a top-1 package");
      match Frp.oracle inst ~k:1 ~val_lo:lo ~val_hi:hi with
      | Some [ got ] ->
          check "FPSPACE(poly) bit string (oracle)" true (Package.equal got expected)
      | _ -> Alcotest.fail "expected a top-1 package (oracle)")

let test_ea_dnf_datalognr_witnesses () =
  repeat 6 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:3 ~n:2 ~nterms:3 in
      let db, prog = Reductions.Membership.ea_dnf_to_datalognr phi in
      check "nonrecursive" true (Qlang.Datalog.is_nonrecursive prog);
      let w = Oracle.eval_program db prog in
      (* W(x̄) must hold exactly on the ∀Y-witnesses *)
      Seq.iter
        (fun xa ->
          let tup =
            Relational.Tuple.of_list
              (List.init 3 (fun i -> Relational.Value.of_bit xa.(i + 1)))
          in
          check "witness relation" (Qbf.Ea_dnf.forall_y_holds phi xa)
            (Relational.Relation.mem tup w))
        (Cnf.assignments 3))

let test_qbf_count_datalognr () =
  repeat 5 (fun rng ->
      let phi = Gen.ea_dnf rng ~m:3 ~n:2 ~nterms:3 in
      let inst, b = Reductions.Membership.qbf_count_instance phi in
      check_int "Theorem 5.3 #·PSPACE parsimony"
        (Qbf.Ea_dnf.count_witnesses phi)
        (Cpp.count inst ~bound:b))

let test_items_frp_maxsat () =
  repeat 6 (fun rng ->
      let mi = Gen.maxsat rng ~nvars:4 ~nclauses:4 ~max_weight:10 in
      let it = Reductions.Items_hard.frp_instance mi in
      let opt, _ = Solvers.Maxsat.solve mi in
      let got =
        match Items.topk it ~k:1 with
        | Some [ t ] -> Reductions.Items_hard.item_weight mi t
        | _ -> -1
      in
      check_int "Theorem 6.4 FRP items" opt got)

let test_items_mbp_satunsat () =
  repeat 6 (fun rng ->
      let phi1 = Gen.cnf3 rng ~nvars:3 ~nclauses:3 in
      let phi2 = Gen.cnf3 rng ~nvars:3 ~nclauses:7 in
      let it, b = Reductions.Satunsat.items_mbp_instance phi1 phi2 in
      check "Theorem 6.4 MBP items iff"
        (Sat.satisfiable phi1 && not (Sat.satisfiable phi2))
        (Items.is_max_bound it ~k:1 ~bound:b))

(* The clause database: structural invariants. *)
let test_clause_db () =
  with_rng 3 (fun rng ->
      let cnf = Gen.cnf3 rng ~nvars:4 ~nclauses:3 in
      let rel = Reductions.Clause_db.relation cnf in
      check_int "7 tuples per clause" 21 (Relational.Relation.cardinal rel);
      Relational.Relation.iter
        (fun t ->
          let cid = Reductions.Clause_db.tuple_cid t in
          check "cid in range" true (cid >= 1 && cid <= 3);
          let asg = Reductions.Clause_db.tuple_assignment t in
          check_int "three vars" 3 (List.length asg))
        rel);
  (* consistency predicate *)
  let t1 = Relational.Tuple.of_ints [ 1; 1; 0; 2; 1; 3; 0 ] in
  let t2 = Relational.Tuple.of_ints [ 2; 1; 0; 4; 1; 5; 0 ] in
  let t3 = Relational.Tuple.of_ints [ 2; 1; 1; 4; 1; 5; 0 ] in
  let t1' = Relational.Tuple.of_ints [ 1; 1; 1; 2; 0; 3; 0 ] in
  check "consistent pair" true
    (Reductions.Clause_db.package_consistent (Package.of_tuples [ t1; t2 ]));
  check "var conflict" false
    (Reductions.Clause_db.package_consistent (Package.of_tuples [ t1; t3 ]));
  check "same cid" false
    (Reductions.Clause_db.package_consistent (Package.of_tuples [ t1; t1' ]))

let () =
  Alcotest.run "reductions"
    [
      ( "gadgets",
        [
          Alcotest.test_case "Figure 4.1 relations" `Quick test_gadget_relations;
          Alcotest.test_case "CNF encoder semantics" `Quick test_gadget_encoders;
          Alcotest.test_case "DNF encoder semantics" `Quick test_gadget_dnf_encoder;
          Alcotest.test_case "clause database" `Quick test_clause_db;
        ] );
      ( "combined-complexity",
        [
          Alcotest.test_case "Lemma 4.2 (compat, Σ₂ᵖ)" `Quick test_compat_sigma2;
          Alcotest.test_case "Theorem 4.1 (RPP, Π₂ᵖ)" `Quick test_rpp_pi2;
          Alcotest.test_case "Theorem 5.1 (FRP max-Σ₂ᵖ, enumerate)" `Quick
            test_frp_sigma2max_enumerate;
          Alcotest.test_case "Theorem 5.1 (FRP max-Σ₂ᵖ, oracle)" `Slow
            test_frp_sigma2max_oracle;
          Alcotest.test_case "Theorem 4.5 (RPP no-Qc, DP)" `Quick test_rpp_dp;
          Alcotest.test_case "Theorem 5.2 (MBP, D₂ᵖ)" `Quick test_mbp_d2p;
          Alcotest.test_case "Theorem 5.3 (CPP, #Π₁SAT)" `Quick test_cpp_pi1;
          Alcotest.test_case "Theorem 5.3 (CPP no-Qc, #Σ₁SAT)" `Quick test_cpp_sigma1;
        ] );
      ( "data-complexity",
        [
          Alcotest.test_case "Lemma 4.4 (compat, NP)" `Quick test_compat_np;
          Alcotest.test_case "Theorem 4.3 (RPP, coNP)" `Quick test_rpp_conp_data;
          Alcotest.test_case "Theorem 5.1 (FRP, MAX-WEIGHT SAT)" `Quick test_frp_maxsat;
          Alcotest.test_case "Theorem 5.1 (FRP oracle on MAX-WEIGHT SAT)" `Slow
            test_frp_maxsat_oracle;
          Alcotest.test_case "Theorem 5.2 (MBP, SAT-UNSAT)" `Quick test_mbp_dp_data;
          Alcotest.test_case "Theorem 5.3 (CPP, #SAT)" `Quick test_cpp_sharpsat;
        ] );
      ( "membership",
        [
          Alcotest.test_case "Q3SAT → FO" `Quick test_membership_fo;
          Alcotest.test_case "Q3SAT → DATALOGnr" `Quick test_membership_datalognr;
          Alcotest.test_case "reachability → DATALOG" `Quick test_membership_datalog_tc;
          Alcotest.test_case "Theorem 5.1 (FRP FPSPACE(poly), bit strings)" `Quick
            test_multi_qbf_frp;
          Alcotest.test_case "∀Y-witness relation in DATALOGnr" `Quick
            test_ea_dnf_datalognr_witnesses;
          Alcotest.test_case "Theorem 5.3 (CPP #·PSPACE)" `Quick
            test_qbf_count_datalognr;
        ] );
      ( "items",
        [
          Alcotest.test_case "Theorem 6.4 (FRP items)" `Quick test_items_frp_maxsat;
          Alcotest.test_case "Theorem 6.4 (MBP items)" `Quick test_items_mbp_satunsat;
        ] );
    ]
