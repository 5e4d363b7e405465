(* Tests for the static plan verifier: schema/arity typing, the
   rewrite-soundness certificate, the budget/fault coverage lints and the
   effect analysis ([Analysis.Plan_check] / [Analysis.Effects]), plus the
   raw-plan fixture parser and the plan-cache key properties the verifier
   relies on. *)

open Qlang
module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Check = Analysis.Plan_check
module Effects = Analysis.Effects
module Diagnostic = Analysis.Diagnostic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let random_db rng =
  Workload.Random_db.database rng
    ~specs:[ ("R", 2); ("S", 2); ("T", 1) ]
    ~rows:8 ~domain:4

let codes ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds
let has_code c ds = List.mem c (codes ds)

let errors_of ds = List.filter Diagnostic.is_error ds

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let atom rel args = { Ast.rel; args = List.map (fun v -> Ast.Var v) args }

let tc_program =
  {
    Datalog.rules =
      [
        Datalog.rule (atom "reach" [ "x"; "y" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule
          (atom "reach" [ "x"; "z" ])
          [ Datalog.Rel (atom "reach" [ "x"; "y" ]); Datalog.Rel (atom "E" [ "y"; "z" ]) ];
      ];
    answer = "reach";
  }

let unreachable_program =
  {
    Datalog.rules =
      [
        Datalog.rule (atom "node" [ "x" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule (atom "node" [ "y" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule (atom "reach" [ "x"; "y" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ];
        Datalog.rule
          (atom "reach" [ "x"; "z" ])
          [ Datalog.Rel (atom "reach" [ "x"; "y" ]); Datalog.Rel (atom "E" [ "y"; "z" ]) ];
        Datalog.rule
          (atom "unreach" [ "x"; "y" ])
          [
            Datalog.Rel (atom "node" [ "x" ]);
            Datalog.Rel (atom "node" [ "y" ]);
            Datalog.Neg (atom "reach" [ "x"; "y" ]);
          ];
      ];
    answer = "unreach";
  }

let nonrec_program =
  {
    Datalog.rules =
      [ Datalog.rule (atom "node" [ "x" ]) [ Datalog.Rel (atom "E" [ "x"; "y" ]) ] ];
    answer = "node";
  }

(* ---------- pass 1+2: every language is clean ---------- *)

(* One representative query per language band of the paper (Table 2):
   SP, CQ, UCQ, ∃FO⁺, FO, DATALOG.  The compiled plan must typecheck
   without errors and carry a full certificate — the acceptance gate of
   the verifier. *)
let test_languages_clean () =
  let rng = Random.State.make [| 11 |] in
  let db = random_db rng in
  let fo_queries =
    [
      ("SP", "Q(x) := exists y. R(x, y)");
      ("CQ", "Q(x, z) := exists y. R(x, y) & S(y, z)");
      ("UCQ", "Q(x) := (exists y. R(x, y)) | (exists y. S(x, y))");
      ("EFO+", "Q(x) := exists y. R(x, y) & (S(y, x) | T(y))");
      ("FO", "Q(x) := T(x) & not (exists y. R(x, y))");
    ]
  in
  List.iter
    (fun (lang, text) ->
      let fq = Parser.parse_query text in
      let q = Query.Fo fq in
      let plan = Plan.compile_fo db fq in
      check (lang ^ " clean") true (Check.ok (Check.check ~db ~query:q plan));
      check (lang ^ " certified") true
        (Analysis.Advisor.certificate_ok (Check.certify q plan)))
    fo_queries;
  let g = Workload.Random_db.graph rng ~nodes:6 ~edges:12 in
  List.iter
    (fun p ->
      let plan = Plan.compile_datalog g p in
      let q = Query.Dl p in
      check "DATALOG clean" true (Check.ok (Check.check ~db:g ~query:q plan));
      check "DATALOG certified" true
        (Analysis.Advisor.certificate_ok (Check.certify q plan)))
    [ tc_program; unreachable_program; nonrec_program ]

(* ---------- the QCheck acceptance property ---------- *)

(* Typing soundness: a plan with no P-series typing errors evaluates
   without interpreter failures (unknown relation, arity, unbound column)
   on the database it was typed against.  ≥ 1000 random (query, db) pairs
   across UCQ and full FO. *)

let random_ucq rng db ~disjuncts =
  let q0 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
  let bodies =
    List.init disjuncts (fun _ ->
        let q = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
        let extra =
          List.filter (fun v -> not (List.mem v q0.Ast.head))
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
  { q1 with Ast.body = Ast.And (q1.Ast.body, Ast.Not (close q1.Ast.head q2.Ast.body)) }

let typed_runs_clean ~name ~mk_query =
  QCheck.Test.make ~count:550 ~name seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q = mk_query rng db in
      let plan = Plan.compile_fo db q in
      if Check.ok (Check.typecheck ~db plan) then (
        ignore (Plan.run db plan);
        true)
      else
        (* the compiler never produces an ill-typed plan for its own db *)
        false)

let prop_typed_ucq_runs =
  typed_runs_clean ~name:"typing ⇒ no interpreter arity errors (random UCQ)"
    ~mk_query:(fun rng db -> random_ucq rng db ~disjuncts:2)

let prop_typed_fo_runs =
  typed_runs_clean ~name:"typing ⇒ no interpreter arity errors (random FO)"
    ~mk_query:random_fo

let prop_typed_datalog_runs =
  QCheck.Test.make ~count:200
    ~name:"typing ⇒ fixpoint runs (random graph TC)" seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Workload.Random_db.graph rng ~nodes:6 ~edges:10 in
      let plan = Plan.compile_datalog g tc_program in
      Check.ok (Check.typecheck ~db:g plan)
      &&
      (ignore (Plan.run g plan);
       true))

(* ---------- per-code negatives via the raw-plan notation ---------- *)

let fixture_db =
  Database.of_string
    "flight(id, src, dst, price)\n\
     1, \"edi\", \"nyc\", 300\n\
     \n\
     hub(city)\n\
     \"nyc\"\n"

let raw_check text =
  Check.check ~db:fixture_db (Analysis.Plan_parse.parse text)

let test_typing_negatives () =
  check "P001" true (has_code "P001" (raw_check "answer Q(x)\n  scan nosuch(x)"));
  check "P002" true (has_code "P002" (raw_check "answer Q(x, y)\n  scan flight(x, y)"));
  check "P003" true
    (has_code "P003"
       (raw_check "answer Q(i)\n  scan flight(i, s, d, p) vars [i]"));
  check "P004" true
    (has_code "P004" (raw_check "answer Q(x)\n  filter y < 3\n    scan hub(x)"));
  check "P005 warns" true
    (has_code "P005"
       (raw_check "answer Q(x)\n  project [x, z]\n    scan hub(x)"));
  check "P005 not an error" true
    (Check.ok
       (Check.check ~db:fixture_db
          (Analysis.Plan_parse.parse
             "answer Q(x)\n  project [x, z]\n    scan hub(x)")));
  check "P006" true
    (has_code "P006"
       (raw_check
          "fixpoint reach\nstratum 0: {reach/2}\n  rule reach(x, y, z):\n    scan hub(x)"));
  check "P007 info" true
    (has_code "P007"
       (raw_check "answer Q(x, y)\n  hash-join\n    scan hub(x)\n    scan hub(y)"));
  check "clean raw plan" true
    (Check.ok
       (Check.check ~db:fixture_db
          (Analysis.Plan_parse.parse "answer Q(city)\n  scan hub(city)")))

(* ---------- distance filters in the raw notation ---------- *)

let dist_filter_of = function
  | Plan.Answer
      { Plan.fp_disjuncts = [ { Plan.d_node = { Plan.op = Plan.Filter (c, _); _ }; _ } ]; _ } ->
      Some c
  | _ -> None

let test_dist_round_trip () =
  let raw =
    Analysis.Plan_parse.parse
      "answer Q(c)\n  filter dist[d](c, \"edi\") <= 2\n    scan hub(c)"
  in
  check "parsed as a distance condition" true
    (dist_filter_of raw
    = Some (Plan.Cond_dist ("d", Ast.Var "c", Ast.Const (Value.Str "edi"), 2.)));
  let ds = Check.check ~db:fixture_db raw in
  check "no P004" false (has_code "P004" ds);
  check "raw distance plan clean" true (Check.ok ds);
  (* A compiled distance query, printed and read back, re-checks clean and
     answers the same. *)
  let q = Parser.parse_query "Q(c) := hub(c) & dist[d](c, \"edi\") <= 2" in
  let plan = Plan.compile_fo fixture_db q in
  let back = Analysis.Plan_parse.parse (Format.asprintf "%a" Plan.pp plan) in
  check "printed plan keeps its distance filter" true
    (match dist_filter_of back with
    | Some (Plan.Cond_dist ("d", _, _, _)) -> true
    | _ -> false);
  check "printed plan re-checks clean" true
    (Check.ok (Check.check ~db:fixture_db back));
  let dist = Dist.add "d" (fun _ _ -> 1.) Dist.empty in
  check "printed plan answers the same" true
    (Relation.equal
       (Plan.run ~dist fixture_db plan)
       (Plan.run ~dist fixture_db back))

(* ---------- printed example plans read back ---------- *)

(* The shipped example queries and Datalog programs, compiled against the
   example database: each printed plan — multi-disjunct UCQs and fixpoints
   with delta variants included — parses back, re-checks clean and answers
   the same.  [dune runtest] runs in the build's test directory, [dune
   exec] from the project root. *)
let examples_dir =
  List.find Sys.file_exists [ "../examples/queries"; "examples/queries" ]

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_examples_round_trip () =
  let db = Database.of_string (read_file (Filename.concat examples_dir "db.txt")) in
  let queries =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".q")
    |> List.sort compare
  in
  check "the example corpus has queries" true (queries <> []);
  check "the corpus includes a UCQ" true
    (List.exists
       (fun f ->
         match
           Plan.compile_fo db
             (Parser.parse_query (read_file (Filename.concat examples_dir f)))
         with
         | Plan.Answer fp -> List.length fp.Plan.fp_disjuncts > 1
         | _ -> false)
       queries);
  let programs =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dl")
    |> List.sort compare
  in
  check "the corpus includes a recursive program" true
    (List.exists
       (fun f ->
         not
           (Datalog.is_nonrecursive
              (Parser.parse_program (read_file (Filename.concat examples_dir f)))))
       programs);
  List.iter
    (fun f ->
      let src = read_file (Filename.concat examples_dir f) in
      let plan =
        if Filename.check_suffix f ".dl" then
          Plan.compile_datalog db (Parser.parse_program src)
        else Plan.compile_fo db (Parser.parse_query src)
      in
      let text = Format.asprintf "%a" Plan.pp plan in
      let back =
        match Analysis.Plan_parse.parse text with
        | back -> back
        | exception Failure msg -> Alcotest.failf "%s: %s\n%s" f msg text
      in
      let ds = Check.check ~db back in
      if not (Check.ok ds) then
        Alcotest.failf "%s: printed plan re-checks with errors:\n%s" f
          (String.concat "\n" (List.map Diagnostic.to_string ds));
      check (f ^ " keeps its operators, strata and delta variants") true
        (Plan.shape plan = Plan.shape back);
      check (f ^ " answers the same") true
        (Relation.equal (Plan.run db plan) (Plan.run db back)))
    (queries @ programs);
  (* Constants outside the database widen the active domain: the printed
     plan carries them, so the parsed plan ranges over the same domain. *)
  List.iter
    (fun (src, rows) ->
      let plan = Plan.compile_fo db (Parser.parse_query src) in
      let back = Analysis.Plan_parse.parse (Format.asprintf "%a" Plan.pp plan) in
      check_int (src ^ " compiled") rows (Relation.cardinal (Plan.run db plan));
      check_int (src ^ " printed and parsed") rows (Relation.cardinal (Plan.run db back)))
    [
      ("Q(x) := x = 99", 1);
      ("Q(x) := hub(x) | x = \"zzz\"", 3);
      ("Q(x) := hub(x) | x = \"a#b, c\"", 3);
    ]

(* The covering rewrite narrows a rule body's index joins to the head's
   variables: reachability's delta variant emits [(y)] rows, printed with a
   keep list.  The printed plan reads back, typechecks and certifies, and
   answers like the compiled one — and a keep list naming a variable the
   join never binds is P009. *)
let test_projected_index_join_round_trip () =
  let rng = Random.State.make [| 23 |] in
  let g = Workload.Random_db.graph rng ~nodes:40 ~edges:120 in
  let p =
    Parser.parse_program "R(y) :- E(x, y), x < 3.\nR(y) :- R(x), E(x, y).\n?- R."
  in
  let plan = Plan.compile_datalog g p in
  let text = Format.asprintf "%a" Plan.pp plan in
  check "the delta variant's join is narrowed to the head" true
    (contains ~sub:"index-join E(x, y) keep [y]" text);
  let back = Analysis.Plan_parse.parse text in
  check "printed plan checks clean" true (Check.ok (Check.check ~db:g back));
  check "printed plan certifies against the program" true
    (Check.ok (Check.check ~db:g ~query:(Query.Dl p) back));
  check "same operators, strata and delta variants" true (Plan.shape plan = Plan.shape back);
  let rows = Plan.run g plan in
  check "printed plan answers the same" true (Relation.equal rows (Plan.run g back));
  check "and both agree with the oracle" true (Relation.equal rows (Oracle.eval_program g p));
  let ds =
    Check.check ~db:g
      (Analysis.Plan_parse.parse "answer Q(z)\n  index-join E(x, y) keep [z]\n    scan E(x, w)")
  in
  check "keeping an unbound variable is P009" true
    (List.exists (fun d -> d.Diagnostic.code = "P009") (errors_of ds))

(* ---------- the paper benchmark's plan shapes ---------- *)

(* A chain CQ with a constant filter, the compatibility query of the
   oracle loop over a database with an empty package relation, and
   transitive closure: each checks clean and certifies, and together they
   reach every plan fault site. *)
let test_bench_shapes () =
  let rng = Random.State.make [| 97 |] in
  let spec = [ ("A", 2); ("B", 2); ("C", 2) ] in
  let cq_db = Workload.Random_db.database rng ~specs:spec ~rows:32 ~domain:16 in
  let delta_db =
    Database.add
      (Relation.empty (Schema.make "RQ" [ "a" ]))
      (Workload.Random_db.database rng ~specs:[ ("A", 2); ("B", 2) ] ~rows:32
         ~domain:16)
  in
  let graph_db = Workload.Random_db.graph rng ~nodes:16 ~edges:40 in
  let fo text = Query.Fo (Parser.parse_query text) in
  let cases =
    [
      ("chain CQ", cq_db,
       fo "Q(x, w) := exists y, z. A(x, y) & B(y, z) & C(z, w) & w = 1");
      ("oracle Qc", delta_db,
       fo "Qc(p) := exists x, y, z. A(x, y) & B(y, z) & RQ(p)");
      ("transitive closure", graph_db, Query.Dl tc_program);
    ]
  in
  let plans =
    List.map
      (fun (name, db, q) ->
        let plan = Query.plan db q in
        check (name ^ " clean") true (Check.ok (Check.check ~db ~query:q plan));
        check (name ^ " certified") true
          (Analysis.Advisor.certificate_ok (Check.certify q plan));
        plan)
      cases
  in
  check "the three shapes cover every plan fault site" true
    (Check.ok (Check.fault_coverage plans))

(* ---------- rewrite-soundness negatives (tampered plans) ---------- *)

let cq = Parser.parse_query "Q(x, z) := exists y. R(x, y) & S(y, z)"

let tamper_disjuncts fp f =
  Plan.Answer { fp with Plan.fp_disjuncts = f fp.Plan.fp_disjuncts }

let compiled_fo db q =
  match Plan.compile_fo db q with
  | Plan.Answer fp -> fp
  | _ -> Alcotest.fail "expected an Answer plan"

let test_certify_negatives () =
  let rng = Random.State.make [| 23 |] in
  let db = random_db rng in
  let fp = compiled_fo db cq in
  (* P010: swap the scanned relations for a different atom multiset *)
  let rename_scans n =
    let rec go n =
      let op =
        match n.Plan.op with
        | Plan.Scan (a, keep) -> Plan.Scan ({ a with Ast.rel = "T" }, keep)
        | Plan.Index_join (c, a, keep) ->
            Plan.Index_join (go c, { a with Ast.rel = "T" }, keep)
        | op -> op
      in
      Plan.raw_node op n.Plan.nvars
    in
    go n
  in
  let p010 =
    tamper_disjuncts fp
      (List.map (fun d -> { d with Plan.d_node = rename_scans d.Plan.d_node }))
  in
  check "P010" true (has_code "P010" (Check.certify_diags (Query.Fo cq) p010));
  (* P011: a filtered source against a filter-free plan *)
  let cq_filtered =
    Parser.parse_query "Q(x, z) := exists y. R(x, y) & S(y, z) & x = 1"
  in
  let p011 =
    Plan.Answer
      { (compiled_fo db cq_filtered) with Plan.fp_disjuncts = fp.Plan.fp_disjuncts }
  in
  check "P011" true
    (has_code "P011" (Check.certify_diags (Query.Fo cq_filtered) p011));
  (* P012: projecting away a free variable of the source *)
  let drop_head d =
    { d with Plan.d_node = Plan.raw_node (Plan.Project ([ "z" ], d.Plan.d_node)) [ "z" ] }
  in
  let p012 = tamper_disjuncts fp (List.map drop_head) in
  check "P012" true (has_code "P012" (Check.certify_diags (Query.Fo cq) p012));
  (* P014: disjunct coverage, and plan kind vs query kind *)
  let p014 = tamper_disjuncts fp (fun _ -> []) in
  check "P014 coverage" true
    (has_code "P014" (Check.certify_diags (Query.Fo cq) p014));
  check "P014 kind mismatch" true
    (has_code "P014"
       (Check.certify_diags (Query.Dl tc_program) (Plan.Answer fp)));
  (* a tampered plan also loses its certificate *)
  check "tampered certificate" false
    (Analysis.Advisor.certificate_ok (Check.certify (Query.Fo cq) p010))

(* P014 on a same-named query names what differs, not "(Q, not Q)". *)
let test_certify_same_name () =
  let rng = Random.State.make [| 31 |] in
  let db = random_db rng in
  let plan = Plan.compile_fo db cq in
  let message q =
    match
      List.filter
        (fun (d : Diagnostic.t) -> d.Diagnostic.code = "P014")
        (Check.certify_diags (Query.Fo q) plan)
    with
    | d :: _ -> d.Diagnostic.message
    | [] -> Alcotest.fail "expected P014"
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let other_body = Parser.parse_query "Q(x, z) := exists y. R(x, y) & S(z, y)" in
  let msg = message other_body in
  check "the body differs" true (contains ~sub:"body" msg);
  check "prints the plan's body" true
    (contains ~sub:(Pretty.formula_to_string cq.Ast.body) msg);
  check "prints the query's body" true
    (contains ~sub:(Pretty.formula_to_string other_body.Ast.body) msg);
  check "no (Q, not Q)" false (contains ~sub:"(Q, not Q)" msg);
  let other_head = Parser.parse_query "Q(z, x) := exists y. R(x, y) & S(y, z)" in
  let msg = message other_head in
  check "the head differs" true (contains ~sub:"head is (x, z), not (z, x)" msg)

let test_certify_dl () =
  let rng = Random.State.make [| 29 |] in
  let g = Workload.Random_db.graph rng ~nodes:5 ~edges:9 in
  let cert p =
    Analysis.Advisor.certificate_to_string
      (Analysis.Advisor.certify_plan (Query.Dl p) (Plan.compile_datalog g p))
  in
  (* satellite: the advisor now certifies fixpoint plans in detail — no
     tractable Table-8.1 cell prints as uncertified *)
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "recursive cert mentions semi-naive" true
    (contains (cert tc_program) "semi-naive");
  check "nonrecursive cert mentions DATALOGnr" true
    (contains (cert nonrec_program) "DATALOGnr");
  (* tampering the deltas away must void the certificate *)
  let dp =
    match Plan.compile_datalog g tc_program with
    | Plan.Fixpoint dp -> dp
    | _ -> Alcotest.fail "expected a Fixpoint plan"
  in
  let naive =
    Plan.Fixpoint
      {
        dp with
        Plan.dp_strata =
          List.map
            (fun stp ->
              {
                stp with
                Plan.st_rules =
                  List.map
                    (fun rp -> { rp with Plan.rp_deltas = [] })
                    stp.Plan.st_rules;
              })
            dp.Plan.dp_strata;
      }
  in
  check "naive recursion violates" false
    (Analysis.Advisor.certificate_ok
       (Analysis.Advisor.certify_plan (Query.Dl tc_program) naive));
  check "naive recursion fails P014" true
    (has_code "P014" (Check.certify_diags (Query.Dl tc_program) naive));
  (* P013: collapsing the stratification puts the complement over a
     same-stratum IDB *)
  let dp_neg =
    match Plan.compile_datalog g unreachable_program with
    | Plan.Fixpoint dp -> dp
    | _ -> Alcotest.fail "expected a Fixpoint plan"
  in
  let merged =
    Plan.Fixpoint
      {
        dp_neg with
        Plan.dp_strata =
          [
            {
              Plan.st_idbs =
                List.concat_map (fun s -> s.Plan.st_idbs) dp_neg.Plan.dp_strata;
              st_rules =
                List.concat_map (fun s -> s.Plan.st_rules) dp_neg.Plan.dp_strata;
            };
          ];
      }
  in
  check "P013" true
    (has_code "P013"
       (Check.certify_diags (Query.Dl unreachable_program) merged))

(* P015 and the anti-join half of complement-stratification. *)
let test_anti_join_checks () =
  check "P015" true
    (has_code "P015"
       (raw_check
          "answer Q(x)\n  anti-join\n    scan hub(x)\n    scan flight(i, x, y, p)"));
  check "guarded anti-join is clean" true
    (Check.ok
       (raw_check
          "answer Q(x)\n\
          \  anti-join\n\
          \    scan hub(x)\n\
          \    project [x]\n\
          \      scan flight(i, x, y, p)"));
  (* the unreach rule negates reach: an anti-join, and no complement *)
  let g = Workload.Random_db.graph (Random.State.make [| 37 |]) ~nodes:5 ~edges:8 in
  let plan = Plan.compile_datalog g unreachable_program in
  let s = Plan.shape plan in
  check_int "one anti-join" 1 s.Plan.anti_joins;
  check_int "no complement" 0 s.Plan.complements;
  check "stratified anti-join certifies" true
    (Check.ok (Check.check ~query:(Query.Dl unreachable_program) ~db:g plan));
  (* hand-written: the rule anti-joins an IDB of its own stratum *)
  let same_stratum =
    Analysis.Plan_parse.parse
      "fixpoint p\n\
       stratum 0: {p/1}\n\
      \  rule p(x):\n\
      \    anti-join\n\
      \      scan E(x, y)\n\
      \      scan p(x)"
  in
  let program =
    Parser.parse_program "p(x) :- E(x, y), not q(x).\nq(x) :- E(x, x).\n?- p."
  in
  check "anti-join over a same-stratum IDB fails P013" true
    (has_code "P013" (Check.certify_diags (Query.Dl program) same_stratum))

(* ---------- budget & fault coverage ---------- *)

let test_budget_fault () =
  let rng = Random.State.make [| 31 |] in
  let db = random_db rng in
  let g = Workload.Random_db.graph rng ~nodes:5 ~edges:9 in
  let cq_plan = Plan.compile_fo db cq in
  let dl_plan = Plan.compile_datalog g tc_program in
  check "cq budget lint clean" true (Check.ok (Check.budget_lint cq_plan));
  check "dl budget lint clean" true (Check.ok (Check.budget_lint dl_plan));
  check "full corpus covers all plan sites" true
    (Check.ok (Check.fault_coverage [ cq_plan; dl_plan ]));
  (* an FO-only corpus never reaches the fixpoint-round site *)
  let ds = Check.fault_coverage [ cq_plan ] in
  check "fo-only corpus misses plan.round" true (has_code "P022" ds);
  check "registry contains the plan sites" true
    (List.for_all
       (fun s -> List.mem s (Check.registry_sites ()))
       Plan.plan_fault_sites);
  check_int "fault registry size" 21 (List.length (Check.registry_sites ()));
  (* every operator declares a budget tick — the compile-time exhaustive
     match in [Plan.op_guards] is what forces new operators to choose *)
  check "index join declares the join fault site" true
    (List.mem (Plan.Fault_site "plan.join")
       (Plan.op_guards
          (Plan.Index_join
             (Plan.raw_node Plan.Tt [], atom "R" [ "x"; "y" ], [ "x"; "y" ]))))

(* ---------- effect analysis ---------- *)

let test_effects () =
  let rng = Random.State.make [| 37 |] in
  let db = random_db rng in
  let plan = Plan.compile_fo db cq in
  let s = Effects.summarize plan in
  check "compiled CQ is ConcurrencySafe" true (s.Effects.verdict = Effects.Concurrency_safe);
  check "touches relation caches" true
    (List.exists
       (fun (a : Effects.access) -> a.Effects.resource = Effects.Relation_caches)
       s.Effects.accesses);
  check "lattice order" true
    (Effects.level_leq Effects.Pure Effects.Reads_shared
    && Effects.level_leq Effects.Reads_shared Effects.Writes_shared
    && not (Effects.level_leq Effects.Writes_shared Effects.Pure));
  check "join" true
    (Effects.level_join Effects.Reads_shared Effects.Writes_shared
    = Effects.Writes_shared);
  (* modelling an unsynchronized structure flips the verdict *)
  let unsafe =
    [ { Effects.resource = Effects.Plan_cache; level = Effects.Writes_shared;
        synchronized = false } ]
  in
  (match Effects.verdict unsafe with
  | Effects.Requires_exclusive [ "plan-cache" ] -> ()
  | _ -> Alcotest.fail "expected RequiresExclusive(plan-cache)");
  check "P030 reported" true (has_code "P030" (Check.effects_diags plan));
  check "no P031 on safe plan" false
    (has_code "P031" (Check.effects_diags plan))

(* ---------- plan-cache key correctness (satellite) ---------- *)

(* Distinct semantics never collide on (query × db identity), and cache
   hits return exactly the plan that already passed typing. *)
let prop_cache_key =
  QCheck.Test.make ~count:150 ~name:"plan-cache keys: no collisions, typed hits"
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = random_db rng in
      let q1 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
      let q2 = Workload.Random_db.random_cq rng db ~natoms:2 ~nvars:3 in
      let p1 = Plan.compile_fo_cached db q1 in
      let hit = Plan.compile_fo_cached db q1 in
      (* same key → the same physical plan, still well-typed *)
      hit == p1
      && Check.ok (Check.typecheck ~db p1)
      && (match p1 with Plan.Answer _ -> true | _ -> false)
      &&
      (* different query (when semantically written differently) → its own
         plan computing its own answers *)
      let p2 = Plan.compile_fo_cached db q2 in
      let sem_ok q p = Relation.equal (Oracle.eval_query db q) (Plan.run db p) in
      (Ast.equal_formula q1.Ast.body q2.Ast.body || not (p2 == p1))
      && sem_ok q1 p1 && sem_ok q2 p2)

(* ---------- dispatch verification mode ---------- *)

let test_dispatch_verify () =
  let inst = Workload.Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:3 () in
  let ds = Core.Dispatch.verify_plans inst in
  check "workload instance verifies" true (Check.ok ds);
  check_int "no verify errors" 0 (List.length (errors_of ds))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "plan_check"
    [
      ( "typing",
        [
          Alcotest.test_case "all languages clean" `Quick test_languages_clean;
          Alcotest.test_case "per-code negatives (raw plans)" `Quick
            test_typing_negatives;
          Alcotest.test_case "distance filters round-trip" `Quick
            test_dist_round_trip;
          Alcotest.test_case "paper benchmark plan shapes" `Quick
            test_bench_shapes;
          Alcotest.test_case "printed example plans round-trip" `Quick
            test_examples_round_trip;
          Alcotest.test_case "projected index join round-trips" `Quick
            test_projected_index_join_round_trip;
        ]
        @ qsuite [ prop_typed_ucq_runs; prop_typed_fo_runs; prop_typed_datalog_runs ] );
      ( "certify",
        [
          Alcotest.test_case "tampered FO plans rejected" `Quick
            test_certify_negatives;
          Alcotest.test_case "P014 on a same-named query" `Quick
            test_certify_same_name;
          Alcotest.test_case "Datalog certificates" `Quick test_certify_dl;
          Alcotest.test_case "anti-join: P015 and stratification" `Quick
            test_anti_join_checks;
        ] );
      ( "budget-fault",
        [ Alcotest.test_case "lint and coverage" `Quick test_budget_fault ] );
      ("effects", [ Alcotest.test_case "lattice and verdicts" `Quick test_effects ]);
      ("cache", qsuite [ prop_cache_key ]);
      ( "dispatch",
        [ Alcotest.test_case "verify_plans" `Quick test_dispatch_verify ] );
    ]
