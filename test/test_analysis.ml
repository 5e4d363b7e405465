(* Tests for the static-analysis pass: one seeded defect per diagnostic
   code, the complexity advisor's Table 8.1/8.2 cells, and the
   dispatcher (SP single-scan candidates, degradation under a constant
   size bound, agreement with the PTIME item algorithms). *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Diagnostic = Analysis.Diagnostic
module Advisor = Analysis.Advisor
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let r =
  Relation.of_int_rows (Schema.make "R" [ "a"; "b" ]) [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]

let s = Relation.of_int_rows (Schema.make "S" [ "a"; "b" ]) [ [ 2; 10 ]; [ 3; 20 ] ]
let u = Relation.of_int_rows (Schema.make "U" [ "a" ]) [ [ 1 ]; [ 2 ] ]
let db = Database.of_relations [ r; s; u ]
let fo str = Qlang.Query.Fo (Qlang.Parser.parse_query str)
let dl str = Qlang.Query.Dl (Qlang.Parser.parse_program str)
let diags qq = Analysis.Analyze.query ~db qq

(* [codes ~expect q] — the query's diagnostics carry [expect], and the
   severity split matches [errors]. *)
let has ~code ds = Diagnostic.by_code code ds <> []

let seeded ?(clean = false) name code qq =
  let ds = diags qq in
  check (name ^ ": " ^ code ^ " present") true (has ~code ds);
  check
    (name ^ ": error status")
    (not clean)
    (Diagnostic.has_errors ds)

(* ---------- safety (A00x) ---------- *)

let test_safety_codes () =
  (* head variable not range-restricted *)
  seeded "unsafe head" "A001" (fo "Q(x) := not U(x)");
  (* free body variable outside the head *)
  seeded "free body var" "A001" (fo "Q(x) := U(x) & U(y) | U(x)");
  (* unlimited existential: x constrained only by a comparison *)
  seeded ~clean:true "unlimited exists" "A002" (fo "Q(y) := U(y) & exists x. x != y");
  (* universal quantification *)
  seeded ~clean:true "forall" "A003" (fo "Q() := forall x. U(x)");
  (* unguarded negation: y is bound by no positive conjunct *)
  seeded "negation" "A004" (fo "Q(x, y) := U(x) & not S(x, y)");
  (* a guarded negation plans as an anti-join and is not flagged *)
  check "guarded negation: no A004" false
    (has ~code:"A004" (diags (fo "Q(x) := U(x) & not S(x, x)")))

let test_safe_query_is_clean () =
  check "clean CQ" true (diags (fo "Q(x, z) := exists y. R(x, y) & S(y, z)") = []);
  check "equality propagates limits" true
    (diags (fo "Q(x, y) := U(x) & x = y") = []);
  check "empty query clean" true (diags Qlang.Query.Empty_query = []);
  check "identity over known relation" true (diags (Qlang.Query.Identity "R") = []);
  seeded "identity over unknown relation" "A010" (Qlang.Query.Identity "Zzz")

(* ---------- schema conformance (A01x) ---------- *)

let test_schema_codes () =
  seeded "unknown relation" "A010" (fo "Q(x) := Zzz(x)");
  seeded "arity mismatch" "A011" (fo "Q(x) := U(x, x)");
  seeded "type mismatch" "A012" (fo "Q(x, y) := R(x, y) & x = \"foo\"");
  seeded "incomparable constants" "A013" (fo "Q(x) := U(x) & 1 = \"a\"")

(* ---------- Datalog analysis (A02x) ---------- *)

let test_datalog_codes () =
  seeded "unstratifiable" "A020" (dl "P(x) :- R(x, y), not P(x).");
  seeded ~clean:true "unreachable IDB" "A021"
    (dl "P(x) :- R(x, y). Z(x) :- S(x, y). ?- P.");
  seeded "IDB/EDB collision" "A022" (dl "U(x) :- R(x, y). ?- U.");
  seeded "unknown EDB" "A023" (dl "P(x) :- Zzz(x, y). ?- P.");
  seeded "arity inconsistency" "A024" (dl "P(x) :- R(x, y). Q2(x) :- P(x, x). ?- Q2.");
  seeded "unsafe rule" "A025" (dl "P(x, z) :- R(x, y). ?- P.");
  seeded "no rule for answer" "A026" (dl "P(x) :- R(x, y). ?- Nope.");
  seeded ~clean:true "strata report" "A027" (dl "P(x) :- R(x, y). ?- P.")

let test_diagnostics_sorted () =
  (* errors come before warnings regardless of discovery order *)
  let ds = diags (fo "Q(x) := Zzz(y) & not U(x)") in
  check "has errors" true (Diagnostic.has_errors ds);
  let rec non_increasing = function
    | a :: (b :: _ as rest) ->
        Diagnostic.compare a b <= 0 && non_increasing rest
    | _ -> true
  in
  check "sorted by severity then code" true (non_increasing ds);
  check "ok on warnings only" true
    (Analysis.Analyze.ok (diags (fo "Q() := forall x. U(x)")));
  check "not ok on errors" false (Analysis.Analyze.ok ds)

(* ---------- stratified negation evaluation ---------- *)

let test_stratified_negation_eval () =
  (* C = U \ P where P = {x | R(2, x)} = {3}: needs two strata. *)
  let p =
    Qlang.Parser.parse_program "P(x) :- R(2, x). C(x) :- U(x), not P(x). ?- C."
  in
  check_int "two strata" 2
    (match Qlang.Datalog.strata_count p with Some n -> n | None -> -1);
  let ans = Oracle.eval_program db p in
  check "complement through negation" true
    (Relation.equal ans
       (Relation.of_int_rows (Schema.make "C" [ "x" ]) [ [ 1 ]; [ 2 ] ]));
  check "analyzer accepts it" true (Analysis.Analyze.ok (Analysis.Analyze.program ~db p))

(* ---------- the complexity advisor ---------- *)

let cell_is (expected_cls, expected_cite) (c : Advisor.cell) name =
  check_str (name ^ " class") expected_cls c.Advisor.cls;
  check_str (name ^ " citation") expected_cite c.Advisor.cite

let test_advisor_combined () =
  let comb p ~lang ~compat = Advisor.combined p ~lang ~compat in
  cell_is ("Πᵖ₂-complete", "Theorem 4.1")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_cq ~compat:true)
    "RPP CQ+Qc";
  cell_is ("DP-complete", "Theorem 4.5")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_cq ~compat:false)
    "RPP CQ no Qc";
  (* SP/CQ/UCQ/∃FO⁺ share the CQ row *)
  cell_is ("Πᵖ₂-complete", "Theorem 4.1")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_sp ~compat:true)
    "RPP SP";
  cell_is ("Πᵖ₂-complete", "Theorem 4.1")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_efo_plus ~compat:true)
    "RPP ∃FO⁺";
  cell_is ("PSPACE-complete", "Theorem 4.1")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_fo ~compat:true)
    "RPP FO";
  cell_is ("PSPACE-complete", "Theorem 4.1")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_datalog_nr ~compat:false)
    "RPP DATALOGnr";
  cell_is ("EXPTIME-complete", "Theorem 4.1")
    (comb Advisor.Rpp ~lang:Qlang.Query.L_datalog ~compat:true)
    "RPP DATALOG";
  cell_is ("FP^Σᵖ₂-complete", "Theorem 5.1")
    (comb Advisor.Frp ~lang:Qlang.Query.L_cq ~compat:true)
    "FRP CQ+Qc";
  cell_is ("FPᴺᴾ-complete", "Theorem 5.1")
    (comb Advisor.Frp ~lang:Qlang.Query.L_cq ~compat:false)
    "FRP CQ no Qc";
  cell_is ("Dᵖ₂-complete", "Theorem 5.2")
    (comb Advisor.Mbp ~lang:Qlang.Query.L_ucq ~compat:true)
    "MBP UCQ+Qc";
  cell_is ("#·coNP-complete", "Theorem 5.3")
    (comb Advisor.Cpp ~lang:Qlang.Query.L_cq ~compat:true)
    "CPP CQ+Qc";
  cell_is ("#·NP-complete", "Theorem 5.3")
    (comb Advisor.Cpp ~lang:Qlang.Query.L_cq ~compat:false)
    "CPP CQ no Qc";
  cell_is ("Σᵖ₂-complete", "Theorem 7.2")
    (comb Advisor.Qrpp ~lang:Qlang.Query.L_cq ~compat:true)
    "QRPP CQ";
  cell_is ("Σᵖ₂-complete", "Theorem 8.1")
    (comb Advisor.Arpp ~lang:Qlang.Query.L_cq ~compat:true)
    "ARPP CQ";
  cell_is ("EXPTIME-complete", "Theorem 8.1")
    (comb Advisor.Arpp ~lang:Qlang.Query.L_datalog ~compat:true)
    "ARPP DATALOG"

let test_advisor_data () =
  let flags = Advisor.no_flags in
  cell_is ("coNP-complete", "Theorem 4.3") (Advisor.data Advisor.Rpp ~flags) "RPP data";
  cell_is ("DP-complete", "Theorem 5.2") (Advisor.data Advisor.Mbp ~flags) "MBP data";
  cell_is ("#·P-complete", "Theorem 5.3") (Advisor.data Advisor.Cpp ~flags) "CPP data";
  (* constant bound collapses decision problems to PTIME, functions to FP *)
  let cb = { Advisor.no_flags with Advisor.const_bound = true } in
  cell_is ("PTIME", "Corollary 6.1") (Advisor.data Advisor.Rpp ~flags:cb) "RPP const";
  cell_is ("FP", "Corollary 6.1") (Advisor.data Advisor.Frp ~flags:cb) "FRP const";
  cell_is ("FP", "Corollary 6.1") (Advisor.data Advisor.Cpp ~flags:cb) "CPP const";
  (* single items: QRPP collapses (Cor 7.3), ARPP does not (Cor 8.2) *)
  let items = { cb with Advisor.items = true } in
  cell_is ("PTIME", "Corollary 7.3") (Advisor.data Advisor.Qrpp ~flags:items) "QRPP items";
  cell_is ("NP-complete", "Corollary 8.2")
    (Advisor.data Advisor.Arpp ~flags:items)
    "ARPP items"

let test_problem_names () =
  check "round trip" true
    (List.for_all
       (fun p ->
         Advisor.problem_of_string (Advisor.problem_to_string p) = Some p)
       Advisor.all_problems);
  check "case-insensitive" true (Advisor.problem_of_string "rpp" = Some Advisor.Rpp);
  check "unknown" true (Advisor.problem_of_string "nope" = None)

let test_sp_scan_agrees_with_generic () =
  (* Instance.candidates evaluates through the plan engine; it must agree
     with the oracle on SP and non-SP selections alike. *)
  let agree qq =
    let inst =
      Instance.make ~db ~select:qq ~cost:Rating.card_or_infinite
        ~value:Rating.count ~budget:10. ()
    in
    Relation.equal (Instance.candidates inst) (Oracle.eval db qq)
  in
  check "SP selection" true (agree (fo "Q(x) := exists y. R(x, y) & x < 3"));
  check "SP with constant" true (agree (fo "Q(y) := R(2, y)"));
  check "CQ join selection" true (agree (fo "Q(x, z) := exists y. R(x, y) & S(y, z)"));
  check "identity" true (agree (Qlang.Query.Identity "R"))

(* ---------- dispatch: degradation under a constant size bound ---------- *)

let items_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "R" [ "id"; "score" ])
        [ [ 1; 5 ]; [ 2; 3 ]; [ 3; 8 ]; [ 4; 1 ] ];
    ]

let items_inst ?compat ?(cost = Rating.count) ?(budget = 1.) () =
  Instance.make ~db:items_db ~select:(Qlang.Query.Identity "R") ?compat ~cost
    ~value:(Rating.sum_col ~nonneg:true 1) ~budget
    ~size_bound:(Size_bound.Const 1) ()

(* Both budgets exhaust at once: a constant size bound degrades to
   [Exact] (counted in robust.degraded), a polynomial one surfaces
   [Partial]. *)
let exhausted_budgets () =
  [ Robust.Budget.make ~deadline:(-1.) (); Robust.Budget.make ~fuel:1 () ]

let degraded () =
  match List.assoc_opt "robust.degraded" (Observe.snapshot ()) with
  | Some (Observe.Count n) -> n
  | Some (Observe.Span _) | None -> 0

let degrades inst =
  List.for_all
    (fun budget ->
      let before = degraded () in
      match Dispatch.topk_b ~budget inst ~k:2 with
      | Robust.Budget.Exact r ->
          r = Dispatch.topk inst ~k:2 && degraded () > before
      | Robust.Budget.Partial _ -> false)
    (exhausted_budgets ())

let test_dispatch_route () =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) @@ fun () ->
  check "items instance degrades to Exact" true (degrades (items_inst ()));
  let with_compat =
    items_inst
      ~compat:(Instance.Compat_fn ("always", fun _ _ -> true))
      ()
  in
  check "constant bound with compat degrades to Exact" true
    (degrades with_compat);
  let generic =
    Instance.make ~db:items_db ~select:(Qlang.Query.Identity "R")
      ~cost:Rating.count ~value:(Rating.sum_col ~nonneg:true 1) ~budget:2. ()
  in
  List.iter
    (fun budget ->
      check "linear bound surfaces Partial" true
        (match Dispatch.topk_b ~budget generic ~k:2 with
        | Robust.Budget.Partial _ -> true
        | Robust.Budget.Exact _ -> false))
    (exhausted_budgets ());
  (* the advisor report reflects the instance flags *)
  let rep = Dispatch.report (items_inst ()) ~problem:Advisor.Frp in
  check "items flag" true rep.Advisor.flags.Advisor.items;
  check_str "FP via constant bound" "FP" rep.Advisor.data.Advisor.cls

(* Dispatch on the paper's Section 2 encoding of item recommendations
   against the PTIME item algorithms (Corollary 6.1), which share no
   code with the package solvers: the same ratings in the same order,
   the same k-th value and the same count, unbudgeted and at fuel 1. *)
let prop_dispatch_matches_items =
  QCheck.Test.make ~name:"items dispatch = Items (PTIME)" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 1 + Random.State.int rng 7 in
      let rel =
        Relation.of_list (Schema.make "R" [ "id"; "w" ])
          (List.init rows (fun i ->
               Tuple.of_ints [ i; Random.State.int rng 6 ]))
      in
      let it =
        Items.make
          ~db:(Database.of_relations [ rel ])
          ~select:(Qlang.Query.Identity "R")
          ~utility:
            {
              Items.u_name = "w";
              u_eval =
                (fun t ->
                  match Tuple.get t 1 with
                  | Value.Int n -> float_of_int n
                  | _ -> nan);
            }
          ()
      in
      let inst = Items.to_package_instance it in
      let k = 1 + Random.State.int rng (rows + 1) in
      let bound = float_of_int (Random.State.int rng 7) in
      let ratings =
        Option.map (List.map (Rating.eval inst.Instance.value))
      in
      let exact = function
        | Robust.Budget.Exact v -> Some v
        | Robust.Budget.Partial _ -> None
      in
      List.for_all
        (fun budget ->
          exact (Dispatch.topk_b ?budget inst ~k)
          |> Option.map ratings
          = Some
              (Option.map (List.map it.Items.utility.Items.u_eval)
                 (Items.topk it ~k))
          && exact (Dispatch.max_bound_b ?budget inst ~k)
             = Some (Items.max_bound it ~k)
          && exact (Dispatch.count_b ?budget inst ~bound)
             = Some (Items.count_ge it ~bound))
        [ None; Some (Robust.Budget.make ~fuel:1 ()) ])

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "safety codes" `Quick test_safety_codes;
          Alcotest.test_case "safe queries are clean" `Quick test_safe_query_is_clean;
          Alcotest.test_case "schema codes" `Quick test_schema_codes;
          Alcotest.test_case "datalog codes" `Quick test_datalog_codes;
          Alcotest.test_case "sorted output" `Quick test_diagnostics_sorted;
          Alcotest.test_case "stratified negation eval" `Quick
            test_stratified_negation_eval;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "Table 8.1 cells" `Quick test_advisor_combined;
          Alcotest.test_case "Table 8.2 cells" `Quick test_advisor_data;
          Alcotest.test_case "problem names" `Quick test_problem_names;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "SP scan = generic eval" `Quick
            test_sp_scan_agrees_with_generic;
          Alcotest.test_case "route selection" `Quick test_dispatch_route;
          QCheck_alcotest.to_alcotest prop_dispatch_matches_items;
        ] );
    ]
