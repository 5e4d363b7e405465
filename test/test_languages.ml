(* One package-recommendation instance per query language of Section 2 —
   SP, CQ, UCQ, ∃FO⁺, FO, DATALOGnr and DATALOG — as selection criteria,
   plus compatibility constraints expressed in CQ, FO and DATALOG.  These
   pin the language routing (classification → evaluator → solvers) across
   the whole matrix the paper's tables range over.

   The shared database is a small labelled graph:
     E(src, dst)       — edges
     L(node, score)    — node scores. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_lang = Alcotest.(check string)

let db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "E" [ "src"; "dst" ])
        [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 1; 3 ] ];
      Relation.of_int_rows (Schema.make "L" [ "node"; "score" ])
        [ [ 1; 5 ]; [ 2; 7 ]; [ 3; 2 ]; [ 4; 9 ] ];
    ]

let instance ?compat select =
  Instance.make ~db ~select ?compat ~cost:Rating.card_or_infinite
    ~value:(Rating.sum_col ~nonneg:true 1) ~budget:2. ()

let lang inst = Qlang.Query.lang_to_string (Instance.language inst)

let q = Qlang.Parser.parse_query
let p = Qlang.Parser.parse_program

(* -------- SP -------- *)

let test_sp_select () =
  let inst = instance (Qlang.Query.Fo (q "Q(n, s) := L(n, s) & s > 2")) in
  check_lang "language" "SP" (lang inst);
  check_int "candidates" 3 (Relation.cardinal (Instance.candidates inst));
  (* best pair: 7 + 9 *)
  match Frp.enumerate inst ~k:1 with
  | Some [ best ] ->
      Alcotest.(check (float 1e-9)) "top rating" 16.
        (Rating.eval inst.Instance.value best)
  | _ -> Alcotest.fail "expected a top-1"

(* -------- CQ -------- *)

let test_cq_select () =
  (* nodes with an outgoing edge, with their scores *)
  let inst =
    instance (Qlang.Query.Fo (q "Q(n, s) := exists m. E(n, m) & L(n, s)"))
  in
  check_lang "language" "CQ" (lang inst);
  check_int "candidates" 3 (Relation.cardinal (Instance.candidates inst));
  Alcotest.(check (option (float 1e-9))) "max bound k=1" (Some 12.)
    (Mbp.max_bound inst ~k:1)

(* -------- UCQ -------- *)

let test_ucq_select () =
  (* sources or sinks *)
  let inst =
    instance
      (Qlang.Query.Fo
         (q
            "Q(n, s) := (exists m. E(n, m) & L(n, s)) | (exists m. E(m, n) & \
             L(n, s))"))
  in
  check_lang "language" "UCQ" (lang inst);
  check_int "all four nodes" 4 (Relation.cardinal (Instance.candidates inst));
  check_int "count >= 16" 1 (Cpp.count inst ~bound:16.)

(* -------- ∃FO⁺ -------- *)

let test_efo_select () =
  (* conjunction over a disjunction — positive existential but not UCQ *)
  let inst =
    instance
      (Qlang.Query.Fo
         (q "Q(n, s) := L(n, s) & (exists m. (E(n, m) | E(m, n)) & L(m, 7))"))
  in
  check_lang "language" "∃FO+" (lang inst);
  (* nodes adjacent to node 2 (score 7): 1 and 3 *)
  check_int "adjacent to the 7-node" 2 (Relation.cardinal (Instance.candidates inst))

(* -------- FO -------- *)

let test_fo_select () =
  (* sinks: nodes with no outgoing edge *)
  let inst =
    instance (Qlang.Query.Fo (q "Q(n, s) := L(n, s) & not (exists m. E(n, m))"))
  in
  check_lang "language" "FO" (lang inst);
  let cands = Instance.candidates inst in
  check_int "one sink" 1 (Relation.cardinal cands);
  check "it is node 4" true (Relation.mem (Tuple.of_ints [ 4; 9 ]) cands)

(* -------- DATALOGnr -------- *)

let test_datalognr_select () =
  let prog =
    p
      "Hop2(n, s) :- E(n, m), E(m, o), L(o, s). Good(n, s) :- Hop2(n, s), s > 1. \
       ?- Good."
  in
  let inst = instance (Qlang.Query.Dl prog) in
  check_lang "language" "DATALOGnr" (lang inst);
  (* 2-hop endpoints: 1->2->3 (2), 1->3->4 (9), 2->3->4 (9) *)
  check_int "two-hop pairs" 3 (Relation.cardinal (Instance.candidates inst))

(* -------- DATALOG -------- *)

let test_datalog_select () =
  let prog =
    p
      "T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). R2(x, s) :- T(x, y), \
       L(y, s). ?- R2."
  in
  let inst = instance (Qlang.Query.Dl prog) in
  check_lang "language" "DATALOG" (lang inst);
  (* reachable-with-score pairs; node 1 reaches 2,3,4 etc. *)
  check_int "reach pairs" 6 (Relation.cardinal (Instance.candidates inst));
  (* the solvers run over a recursive selection *)
  match Frp.enumerate inst ~k:2 with
  | Some sel -> check "top-2 certified" true (Rpp.is_topk inst sel)
  | None -> Alcotest.fail "expected a top-2"

(* -------- compatibility constraints in three languages -------- *)

(* No two adjacent nodes in a package (RQ carries (node, score)). *)
let compat_cq =
  Instance.Compat_query
    (Qlang.Query.Fo
       (q
          "Qc() := exists n, s, m, s2. RQ(n, s) & RQ(m, s2) & E(n, m)"))

let compat_fo =
  Instance.Compat_query
    (Qlang.Query.Fo
       (q
          "Qc() := exists n, s. RQ(n, s) & not (forall m, s2. RQ(m, s2) -> (not \
           E(n, m)))"))

let compat_dl =
  Instance.Compat_query
    (Qlang.Query.Dl (p "Bad(n, m) :- RQ(n, s), RQ(m, s2), E(n, m). ?- Bad."))

let select_all_nodes = Qlang.Query.Fo (q "Q(n, s) := L(n, s)")

let test_compat_languages_agree () =
  let mk compat = instance ~compat select_all_nodes in
  let a = mk compat_cq and b = mk compat_fo and c = mk compat_dl in
  (* all pairs of nodes *)
  let nodes = Relation.to_list (Database.find db "L") in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let pkg = Package.of_tuples [ x; y ] in
          let va = Validity.compatible a pkg in
          check "CQ = FO constraint" true (va = Validity.compatible b pkg);
          check "CQ = DATALOG constraint" true (va = Validity.compatible c pkg))
        nodes)
    nodes;
  (* and a concrete case: {1, 2} adjacent, {1, 4} not *)
  check "adjacent rejected" false
    (Validity.compatible a (Package.of_tuples [ Tuple.of_ints [ 1; 5 ]; Tuple.of_ints [ 2; 7 ] ]));
  check "non-adjacent fine" true
    (Validity.compatible a (Package.of_tuples [ Tuple.of_ints [ 1; 5 ]; Tuple.of_ints [ 4; 9 ] ]))

let test_topk_under_datalog_compat () =
  let inst = instance ~compat:compat_dl select_all_nodes in
  match Frp.enumerate inst ~k:1 with
  | Some [ best ] ->
      (* best independent pair: 2 and 4 (7 + 9 = 16); 1-2, 2-3, 3-4, 1-3 edges *)
      Alcotest.(check (float 1e-9)) "best independent pair" 16.
        (Rating.eval inst.Instance.value best);
      check "certified" true (Rpp.is_topk inst [ best ])
  | _ -> Alcotest.fail "expected a top-1"

(* Per-language agreement of the plan route and the reference FO evaluator
   on the selects. *)
let test_evaluators_agree_on_selects () =
  List.iter
    (fun qstr ->
      let query = q qstr in
      check ("planner agrees: " ^ qstr) true
        (Relation.equal
           (Qlang.Query.eval db (Qlang.Query.Fo query))
           (Oracle.eval_query db query)))
    [
      "Q(n, s) := L(n, s) & s > 2";
      "Q(n, s) := exists m. E(n, m) & L(n, s)";
      "Q(n, s) := (exists m. E(n, m) & L(n, s)) | (exists m. E(m, n) & L(n, s))";
    ]

let () =
  Alcotest.run "languages"
    [
      ( "selects",
        [
          Alcotest.test_case "SP" `Quick test_sp_select;
          Alcotest.test_case "CQ" `Quick test_cq_select;
          Alcotest.test_case "UCQ" `Quick test_ucq_select;
          Alcotest.test_case "∃FO+" `Quick test_efo_select;
          Alcotest.test_case "FO" `Quick test_fo_select;
          Alcotest.test_case "DATALOGnr" `Quick test_datalognr_select;
          Alcotest.test_case "DATALOG" `Quick test_datalog_select;
        ] );
      ( "compat",
        [
          Alcotest.test_case "CQ = FO = DATALOG constraints" `Quick
            test_compat_languages_agree;
          Alcotest.test_case "top-k under DATALOG Qc" `Quick
            test_topk_under_datalog_compat;
          Alcotest.test_case "evaluators agree" `Quick test_evaluators_agree_on_selects;
        ] );
    ]
