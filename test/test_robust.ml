(* Tests for the robustness layer: budgets (fuel, deadlines), the
   [Exact]/[Partial] outcome discipline of every budgeted entry point,
   advisor-driven degradation, and deterministic fault injection at every
   [Robust.Fault] site — including the unpoisoned-memo property (fault,
   then retry on the same instance, equals a fresh run).

   When [PKG_FAULT=<site>:<nth>[:exn|exhaust]] is set, only that site's
   scenario runs — the CI fault matrix executes this binary once per
   site. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Budget = Robust.Budget
module Fault = Robust.Fault
module Cnf = Solvers.Cnf
module Sat = Solvers.Sat
module Qbf = Solvers.Qbf
module Count = Solvers.Count
module Maxsat = Solvers.Maxsat
module Gen = Solvers.Gen
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pkg ints_rows = Package.of_tuples (List.map Tuple.of_ints ints_rows)

let topk_equal a b =
  match (a, b) with
  | None, None -> true
  | Some xs, Some ys ->
      List.length xs = List.length ys && List.for_all2 Package.equal xs ys
  | _ -> false

(* R(id, score); packages maximize total score under cost = |N| ≤ 2. *)
let small_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "R" [ "id"; "score" ])
        [ [ 1; 5 ]; [ 2; 3 ]; [ 3; 8 ]; [ 4; 1 ] ];
    ]

let small_inst ?compat ?size_bound ?(budget = 2.) () =
  Instance.make ~db:small_db ~select:(Qlang.Query.Identity "R") ?compat
    ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
    ~budget ?size_bound ()

(* ---------- budget basics ---------- *)

let test_fuel () =
  let b = Budget.make ~fuel:3 () in
  Budget.with_budget b (fun () ->
      Budget.check ();
      Budget.check ();
      Budget.check ();
      (try
         Budget.check ();
         Alcotest.fail "fourth check must exhaust"
       with Budget.Exhausted Budget.Fuel -> ());
      (* The trip is latched: re-raises without consuming more ticks. *)
      try
        Budget.check ();
        Alcotest.fail "latch must re-raise"
      with Budget.Exhausted Budget.Fuel -> ());
  check_int "ticks stop at the trip" 4 (Budget.ticks b);
  (* No installed budget: check is a no-op. *)
  Budget.check ()

let test_deadline () =
  let b = Budget.make ~deadline:(-1.) () in
  try
    Budget.with_budget b Budget.check;
    Alcotest.fail "expired deadline must trip"
  with Budget.Exhausted Budget.Deadline -> ()

let test_run_outcomes () =
  (match Budget.run ~partial:(fun _ -> None) (fun () -> 42) with
  | Budget.Exact 42 -> ()
  | _ -> Alcotest.fail "expected Exact 42");
  let b = Budget.make ~fuel:2 () in
  match
    Budget.run ~budget:b
      ~partial:(fun r -> Some r)
      (fun () ->
        for _ = 1 to 10 do
          Budget.check ()
        done;
        0)
  with
  | Budget.Partial
      { best_so_far = Some Budget.Fuel; reason = Budget.Fuel; work_done } ->
      check_int "work_done is the tick count" 3 work_done
  | _ -> Alcotest.fail "expected Partial with reason Fuel"

let test_reason_strings () =
  Alcotest.(check string) "fuel" "fuel" (Budget.reason_to_string Budget.Fuel);
  Alcotest.(check string) "fault" "fault:x"
    (Budget.reason_to_string (Budget.Fault "x"))

let test_fault_parse () =
  check "site:nth" true (Fault.parse "sat.conflict:3" = Some ("sat.conflict", 3, Fault.Exn));
  check "explicit exn" true (Fault.parse "a.b:1:exn" = Some ("a.b", 1, Fault.Exn));
  check "exhaust" true (Fault.parse "a.b:2:exhaust" = Some ("a.b", 2, Fault.Exhaust));
  check "zero nth rejected" true (Fault.parse "a.b:0" = None);
  check "bad kind rejected" true (Fault.parse "a.b:1:boom" = None);
  check "garbage rejected" true (Fault.parse "nonsense" = None)

(* ---------- budgeted entry points: soundness of Partial ---------- *)

let test_frp_budgeted_sound () =
  let inst = small_inst () in
  let exact = Frp.enumerate inst ~k:1 in
  let value = Rating.eval inst.Instance.value in
  let opt =
    match exact with
    | Some [ p ] -> value p
    | _ -> Alcotest.fail "small instance has a top-1"
  in
  (* [inst] has its valid-package index stored by now (replays); a fresh
     instance walks. *)
  for fuel = 1 to 40 do
    List.iter
      (fun inst ->
        match Frp.enumerate_budgeted ~budget:(Budget.make ~fuel ()) inst ~k:1 with
        | Budget.Exact r -> check "exact run matches enumerate" true (topk_equal r exact)
        | Budget.Partial { best_so_far = Some p; _ } ->
            check "partial package is valid" true (Validity.valid inst p);
            check "partial rating ≤ optimum" true (value p <= opt)
        | Budget.Partial { best_so_far = None; _ } -> ())
      [ inst; small_inst () ]
  done;
  (* An unlimited explicit budget forces the anytime (sequential) path;
     the answer must still match the default path exactly. *)
  match Frp.enumerate_budgeted ~budget:(Budget.make ()) inst ~k:2 with
  | Budget.Exact r -> check "anytime path agrees" true (topk_equal r (Frp.enumerate inst ~k:2))
  | Budget.Partial _ -> Alcotest.fail "unlimited budget must be Exact"

let test_cpp_budgeted_lower_bound () =
  let inst = small_inst () in
  let exact = Cpp.count inst ~bound:4. in
  (match Cpp.count_budgeted ~budget:(Budget.make ()) inst ~bound:4. with
  | Budget.Exact n -> check_int "unlimited budget is exact" exact n
  | Budget.Partial _ -> Alcotest.fail "unlimited budget must be Exact");
  for fuel = 1 to 30 do
    List.iter
      (fun inst ->
        match Cpp.count_budgeted ~budget:(Budget.make ~fuel ()) inst ~bound:4. with
        | Budget.Exact n -> check_int "exact count" exact n
        | Budget.Partial { best_so_far = Some n; _ } ->
            check "verified lower bound" true (0 <= n && n <= exact)
        | Budget.Partial { best_so_far = None; _ } ->
            Alcotest.fail "CPP partial always carries the count so far")
      [ inst; small_inst () ]
  done

let test_mbp_budgeted_unknown () =
  let inst = small_inst () in
  match Mbp.max_bound_budgeted ~budget:(Budget.make ~fuel:1 ()) inst ~k:1 with
  | Budget.Partial { best_so_far = None; reason = Budget.Fuel; _ } -> ()
  | Budget.Partial _ -> Alcotest.fail "MBP partial must be Unknown fuel"
  | Budget.Exact _ -> Alcotest.fail "fuel 1 must interrupt MBP"

let test_relax_adjust_budgeted_unknown () =
  let dist = Qlang.Dist.add "num" Qlang.Dist.numeric Qlang.Dist.empty in
  let db =
    Database.of_relations
      [
        Relation.of_int_rows (Schema.make "R" [ "a"; "b" ])
          [ [ 1; 10 ]; [ 2; 20 ]; [ 5; 50 ] ];
      ]
  in
  let inst =
    Instance.make ~db
      ~select:(Qlang.Query.Fo (Qlang.Parser.parse_query "Q(a, b) := R(a, b) & a = 1"))
      ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
      ~budget:1. ~dist ()
  in
  let site = { Relax.kind = Relax.Const_site (Value.Int 1); dfun = "num" } in
  (match
     Relax.qrpp_budgeted ~budget:(Budget.make ~fuel:1 ()) inst ~sites:[ site ]
       ~k:1 ~bound:20. ~max_gap:10.
   with
  | Budget.Partial { best_so_far = None; _ } -> ()
  | Budget.Partial { best_so_far = Some _; _ } ->
      Alcotest.fail "QRPP partial must be Unknown"
  | Budget.Exact _ -> Alcotest.fail "fuel 1 must interrupt QRPP");
  let adj_inst = small_inst ~budget:1. () in
  let extra =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "id"; "score" ]) [ [ 9; 9 ] ] ]
  in
  match
    Adjust.arpp_budgeted ~budget:(Budget.make ~fuel:1 ()) adj_inst ~extra ~k:1
      ~bound:4. ~max_changes:1
  with
  | Budget.Partial { best_so_far = None; _ } -> ()
  | Budget.Partial { best_so_far = Some _; _ } ->
      Alcotest.fail "ARPP partial must be Unknown"
  | Budget.Exact _ -> Alcotest.fail "fuel 1 must interrupt ARPP"

(* ---------- non-binding budget: answers and telemetry unchanged ---------- *)

(* Counters are no-ops unless tracing is on; telemetry-asserting tests
   force-enable it and restore the ambient state afterwards. *)
let with_tracing f =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect
    ~finally:(fun () ->
      Observe.set_enabled was;
      Observe.reset ())
    f

let counters snap =
  List.filter_map
    (function
      | name, Observe.Count n -> Some (name, n)
      | name, Observe.Span { entries; _ } -> Some (name, entries))
    snap

let test_nonbinding_budget_equivalence () =
  with_tracing @@ fun () ->
  (* Both runs must find the instance memo in the same state: first two
     instances with Q(D) warm (both runs walk and store the valid-package
     index), then one with the index stored (both runs replay it). *)
  let same_state ~what inst_plain inst_budgeted =
    Observe.reset ();
    let plain = Frp.enumerate inst_plain ~k:2 in
    let s_plain = counters (Observe.snapshot ()) in
    Observe.reset ();
    let budgeted =
      Frp.enumerate_budgeted ~budget:(Budget.make ~fuel:10_000_000 ())
        inst_budgeted ~k:2
    in
    let s_budgeted = counters (Observe.snapshot ()) in
    (match budgeted with
    | Budget.Exact r -> check ("answers unchanged, " ^ what) true (topk_equal r plain)
    | Budget.Partial _ -> Alcotest.fail "non-binding budget must be Exact");
    check ("telemetry totals unchanged, " ^ what) true (s_plain = s_budgeted)
  in
  let a = small_inst () and b = small_inst () in
  ignore (Instance.candidates a);
  ignore (Instance.candidates b);
  same_state ~what:"walk" a b;
  same_state ~what:"replay" a a

(* ---------- advisor-driven degradation ---------- *)

let counter_of name snap =
  match List.assoc_opt name snap with Some n -> n | None -> 0

let test_degrade_const_bound () =
  with_tracing @@ fun () ->
  let inst = small_inst ~size_bound:(Size_bound.Const 2) () in
  let exact = Dispatch.topk inst ~k:2 in
  (match Dispatch.topk_b ~budget:(Budget.make ~fuel:1 ()) inst ~k:2 with
  | Budget.Exact r -> check "degraded answer is exact" true (topk_equal r exact)
  | Budget.Partial _ ->
      Alcotest.fail "tractable route must degrade to Exact");
  check "degradation counted" true
    (counter_of "robust.degraded" (counters (Observe.snapshot ())) > 0)

let test_degrade_items () =
  with_tracing @@ fun () ->
  (* A joining CQ selection so candidate generation passes budget checks;
     Const 1 and no Qc make an items instance, whose constant size bound
     is the degradable case.  A fresh instance per budget, so that each
     run generates its candidates. *)
  let inst () =
    Instance.make ~db:small_db
      ~select:
        (Qlang.Query.Fo
           (Qlang.Parser.parse_query "Q(i, s) := R(i, s) & R(i, s)"))
      ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
      ~budget:2. ~size_bound:(Size_bound.Const 1) ()
  in
  List.iter
    (fun (what, budget) ->
      let before = counter_of "robust.degraded" (counters (Observe.snapshot ())) in
      (match Dispatch.topk_b ~budget (inst ()) ~k:1 with
      | Budget.Exact (Some [ p ]) ->
          check ("degraded top-1 is the best singleton, " ^ what) true
            (Package.equal p (pkg [ [ 3; 8 ] ]))
      | _ -> Alcotest.fail ("items instance must degrade to Exact, " ^ what));
      check ("degradation counted, " ^ what) true
        (counter_of "robust.degraded" (counters (Observe.snapshot ())) > before))
    [
      ("deadline", Budget.make ~deadline:(-1.) ());
      ("fuel 1", Budget.make ~fuel:1 ());
    ]

let test_generic_stays_partial () =
  let inst = small_inst () in
  (* a linear size bound is not degradable: exhaustion surfaces as Partial. *)
  match Dispatch.topk_b ~budget:(Budget.make ~fuel:1 ()) inst ~k:1 with
  | Budget.Partial { reason = Budget.Fuel; _ } -> ()
  | _ -> Alcotest.fail "a linear size bound must surface Partial"

(* ---------- SAT conflict cap (sat.conflicts telemetry events) ---------- *)

(* Complete falsification over two variables: DPLL must conflict in both
   branches before concluding UNSAT. *)
let forced_conflicts =
  Cnf.make ~nvars:2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ]

let test_sat_conflict_cap () =
  (match Sat.solve_budgeted ~conflict_limit:1 forced_conflicts with
  | Budget.Partial { best_so_far = None; reason = Budget.Fuel; _ } -> ()
  | Budget.Partial _ ->
      Alcotest.fail "an interrupted DPLL run reports Partial fuel, no model"
  | Budget.Exact _ -> Alcotest.fail "cap 1 must interrupt the refutation");
  (match Sat.solve_budgeted ~conflict_limit:1000 forced_conflicts with
  | Budget.Exact None -> ()
  | _ -> Alcotest.fail "generous cap must refute exactly");
  let satf = Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  match Sat.solve_budgeted ~conflict_limit:1000 satf with
  | Budget.Exact (Some a) -> check "model satisfies" true (Cnf.holds satf a)
  | _ -> Alcotest.fail "expected a model"

(* ---------- fault injection, one scenario per site ---------- *)

(* Arm [site:1:exn], run [f], expect [Injected site]; always disarm. *)
let expect_injected site f =
  Fault.arm ~site ~nth:1 ~kind:Fault.Exn;
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  match f () with
  | _ -> Alcotest.failf "fault %s did not fire" site
  | exception Fault.Injected s -> Alcotest.(check string) "site" site s

let test_fault_sat_conflict () =
  expect_injected "sat.conflict" (fun () -> Sat.solve forced_conflicts);
  check "solver still refutes after the fault" false
    (Sat.satisfiable forced_conflicts);
  Fault.arm ~site:"sat.conflict" ~nth:1 ~kind:Fault.Exhaust;
  (match Sat.solve_budgeted forced_conflicts with
  | Budget.Partial
      { best_so_far = None; reason = Budget.Fault "sat.conflict"; _ } ->
      ()
  | _ -> Alcotest.fail "expected Partial fault:sat.conflict");
  Fault.disarm ()

let test_fault_qbf_node () =
  let q = Gen.qbf (Random.State.make [| 7 |]) ~nvars:4 ~nclauses:6 in
  let expected = Qbf.solve q in
  expect_injected "qbf.node" (fun () -> Qbf.solve q);
  check "retry equals fresh run" true (Qbf.solve q = expected)

let test_fault_count_node () =
  let f = Cnf.make ~nvars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; -4 ] ] in
  expect_injected "count.node" (fun () -> Count.count_models f);
  check_int "retry equals brute force" (Count.brute_count f)
    (Count.count_models f)

let test_fault_maxsat_node () =
  let mi =
    Maxsat.make (Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ]) [ 3; 2; 1 ]
  in
  expect_injected "maxsat.node" (fun () -> Maxsat.solve mi);
  let w, a = Maxsat.solve mi in
  check_int "retry weight is achieved" w (Maxsat.weight_of mi a);
  check_int "retry equals brute force" (Maxsat.brute_force mi) w;
  Fault.arm ~site:"maxsat.node" ~nth:6 ~kind:Fault.Exhaust;
  (match Maxsat.solve_budgeted mi with
  | Budget.Partial { best_so_far; reason = Budget.Fault "maxsat.node"; _ } -> (
      match best_so_far with
      | Some (pw, pa) ->
          check_int "partial weight is achieved" pw (Maxsat.weight_of mi pa);
          check "partial weight ≤ optimum" true (pw <= w)
      | None -> ())
  | _ -> Alcotest.fail "expected Partial fault:maxsat.node");
  Fault.disarm ()

(* The kernel-wide site: every solver built on {!Solvers.Bnb} probes
   ["bnb.node"] at each node tick, so one armed site reaches MaxSAT and
   the package oracle alike. *)
let test_fault_bnb_node () =
  let mi =
    Maxsat.make (Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ]) [ 3; 2; 1 ]
  in
  expect_injected "bnb.node" (fun () -> Maxsat.solve mi);
  let w, a = Maxsat.solve mi in
  check_int "retry weight is achieved" w (Maxsat.weight_of mi a);
  expect_injected "bnb.node" (fun () ->
      Exist_pack.all_valid (Exist_pack.ctx (small_inst ())));
  let retry = Exist_pack.all_valid (Exist_pack.ctx (small_inst ())) in
  let fresh = Exist_pack.all_valid (Exist_pack.ctx (small_inst ())) in
  check "oracle fault-then-retry equals a fresh run" true
    (List.length retry = List.length fresh
    && List.for_all2 Package.equal retry fresh);
  Fault.arm ~site:"bnb.node" ~nth:6 ~kind:Fault.Exhaust;
  (match Maxsat.solve_budgeted mi with
  | Budget.Partial { best_so_far; reason = Budget.Fault "bnb.node"; _ } -> (
      match best_so_far with
      | Some (pw, pa) ->
          check_int "partial weight is achieved" pw (Maxsat.weight_of mi pa);
          check "partial weight ≤ optimum" true (pw <= w)
      | None -> ())
  | _ -> Alcotest.fail "expected Partial fault:bnb.node");
  Fault.disarm ()

(* Q(D) through a new instance over the same database and query, so its
   memo starts empty. *)
let fresh_candidates inst =
  Instance.candidates
    (Instance.make ~db:inst.Instance.db ~select:inst.select ~dist:inst.dist
       ~cost:inst.cost ~value:inst.value ~budget:inst.budget ())

let test_fault_memo_candidates () =
  let inst = small_inst () in
  expect_injected "memo.candidates" (fun () -> Instance.candidates inst);
  check "memo unpoisoned: retry equals a fresh instance's run" true
    (Relation.equal (Instance.candidates inst) (fresh_candidates inst));
  (* Exhaust kind through an explicit run wrapper. *)
  let inst2 = small_inst () in
  Fault.arm ~site:"memo.candidates" ~nth:1 ~kind:Fault.Exhaust;
  (match
     Budget.run ~partial:(fun _ -> None) (fun () -> Instance.candidates inst2)
   with
  | Budget.Partial { reason = Budget.Fault "memo.candidates"; _ } -> ()
  | _ -> Alcotest.fail "expected Partial fault:memo.candidates");
  Fault.disarm ();
  check "memo unpoisoned after exhaustion" true
    (Relation.equal (Instance.candidates inst2) (fresh_candidates inst2))

(* Qc(D ⊕ N) = ∅ through a delta plan prepared here, whatever the route
   [Validity.compatible] takes. *)
let delta_compatible (inst : Instance.t) p =
  match inst.compat with
  | Instance.Compat_query qc ->
      Qlang.Engine.delta_is_empty
        (Qlang.Engine.delta_prepare inst.db ~rel:inst.answer_rel
           ~schema:(Instance.answer_schema inst) qc)
        (Package.to_relation (Instance.answer_schema inst) p)
  | Instance.No_constraint | Instance.Compat_fn _ -> Alcotest.fail "no query constraint"

let counter name =
  match List.assoc_opt name (Observe.snapshot ()) with
  | Some (Observe.Count n) -> n
  | _ -> 0

let test_fault_memo_compat () =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) @@ fun () ->
  (* A CQ: the fault fires while its conflict sets are built. *)
  let qc =
    Qlang.Parser.parse_query
      "Qc() := exists a, s, b, s2. RQ(a, s) & RQ(b, s2) & s = s2 & a != b"
  in
  let inst = small_inst ~compat:(Instance.Compat_query (Qlang.Query.Fo qc)) () in
  let p = pkg [ [ 1; 5 ]; [ 3; 8 ] ] in
  expect_injected "memo.compat" (fun () -> Validity.compatible inst p);
  check_int "the faulted build stored nothing" 0 (counter "compat.conflict_builds");
  check "verdict memo unpoisoned: retry computes the true verdict" true
    (Validity.compatible inst p);
  check "the retry built the conflict sets and answered from them" true
    (counter "compat.conflict_builds" = 1 && counter "compat.conflict_checks" = 1);
  check "and agrees with the delta route" true (delta_compatible inst p);
  (* An FO constraint: the fault fires at the verdict memo. *)
  let fo =
    Qlang.Parser.parse_query "Qc() := exists a, s. RQ(a, s) & not (s = 5)"
  in
  let inst = small_inst ~compat:(Instance.Compat_query (Qlang.Query.Fo fo)) () in
  let p = pkg [ [ 1; 5 ] ] in
  expect_injected "memo.compat" (fun () -> Validity.compatible inst p);
  check "FO verdict memo unpoisoned" true (Validity.compatible inst p)

(* Small fuel interrupts the conflict-set build or the walk after it;
   every package a partial answer reports is still valid when its
   compatibility is re-checked by the delta route, and an interrupted
   build leaves the instance answering like a fresh one. *)
let test_fuel_sweep_conflicts () =
  let exact = Frp.enumerate (Workload.Teams.team_instance ~salary_budget:250. ()) ~k:3 in
  let partials = ref 0 in
  for fuel = 1 to 120 do
    let inst = Workload.Teams.team_instance ~salary_budget:250. () in
    (match Frp.enumerate_budgeted ~budget:(Budget.make ~fuel ()) inst ~k:3 with
    | Budget.Partial { best_so_far = Some p; _ } ->
        incr partials;
        check
          (Printf.sprintf "fuel %d: partial valid by the delta route" fuel)
          true
          (Package.subset_of_relation p (Instance.candidates inst)
          && Validity.within_size inst p && Validity.within_budget inst p
          && delta_compatible inst p)
    | Budget.Partial { best_so_far = None; _ } | Budget.Exact _ -> ());
    check
      (Printf.sprintf "fuel %d: the instance still answers exactly" fuel)
      true
      (topk_equal (Frp.enumerate inst ~k:3) exact)
  done;
  check "some partial reported a package" true (!partials > 0)

(* The valid-package index is stored only after its walk completed; a
   fault at the store leaves the instance without one. *)
let test_fault_memo_valid () =
  let stored inst = Option.is_some (Exist_pack.index (Exist_pack.ctx inst)) in
  let inst = small_inst () in
  expect_injected "memo.valid" (fun () -> Frp.enumerate inst ~k:2);
  check "an interrupted fill stores nothing" false (stored inst);
  let retry = Frp.enumerate inst ~k:2 in
  check "the retry stores the index" true (stored inst);
  check "fault-then-retry equals a fresh run" true
    (topk_equal retry (Frp.enumerate (small_inst ()) ~k:2));
  check "replayed packages equal a fresh walk" true
    (List.equal Package.equal
       (Exist_pack.all_valid (Exist_pack.ctx inst))
       (Exist_pack.all_valid (Exist_pack.ctx (small_inst ()))));
  (* Exhaust kind through the budgeted entry point: a sound partial, and
     still nothing stored. *)
  let inst2 = small_inst () in
  Fault.arm ~site:"memo.valid" ~nth:1 ~kind:Fault.Exhaust;
  (match Frp.enumerate_budgeted ~budget:(Budget.make ()) inst2 ~k:1 with
  | Budget.Partial { best_so_far; reason = Budget.Fault "memo.valid"; _ } -> (
      match best_so_far with
      | Some p -> check "partial package is valid" true (Validity.valid inst2 p)
      | None -> ())
  | _ -> Alcotest.fail "expected Partial fault:memo.valid");
  Fault.disarm ();
  check "an exhausted fill stores nothing" false (stored inst2)

let graph_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "E" [ "s"; "d" ]) [ [ 1; 2 ]; [ 2; 3 ] ];
    ]

let test_fault_plan_join () =
  (* The plan interpreter's probe-join site, hit through the default
     [Query.eval] route (a column scan joined by an index join). *)
  let q = Qlang.Parser.parse_query "Q(x, z) := exists y. E(x, y) & E(y, z)" in
  expect_injected "plan.join" (fun () ->
      Qlang.Query.eval graph_db (Qlang.Query.Fo q));
  check_int "retry computes the join" 1
    (Relation.cardinal (Qlang.Query.eval graph_db (Qlang.Query.Fo q)))

let test_fault_plan_round () =
  let tc =
    Qlang.Parser.parse_program
      "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z). ?- T."
  in
  expect_injected "plan.round" (fun () ->
      Qlang.Query.eval graph_db (Qlang.Query.Dl tc));
  check_int "retry reaches the fixpoint" 3
    (Relation.cardinal (Qlang.Query.eval graph_db (Qlang.Query.Dl tc)));
  Fault.arm ~site:"plan.round" ~nth:1 ~kind:Fault.Exhaust;
  (match
     Budget.run ~partial:(fun _ -> None) (fun () ->
         Qlang.Query.eval graph_db (Qlang.Query.Dl tc))
   with
  | Budget.Partial { reason = Budget.Fault "plan.round"; _ } -> ()
  | _ -> Alcotest.fail "expected Partial fault:plan.round");
  Fault.disarm ()

let test_fault_oracle_node () =
  let inst = small_inst () in
  expect_injected "oracle.node" (fun () ->
      Exist_pack.all_valid (Exist_pack.ctx inst));
  let retry = Exist_pack.all_valid (Exist_pack.ctx inst) in
  let fresh = Exist_pack.all_valid (Exist_pack.ctx (small_inst ())) in
  check "fault-then-retry equals a fresh run" true
    (List.length retry = List.length fresh
    && List.for_all2 Package.equal retry fresh);
  (* Exhaust mid-search through the budgeted entry point: sound partial. *)
  Fault.arm ~site:"oracle.node" ~nth:4 ~kind:Fault.Exhaust;
  let inst2 = small_inst () in
  (match Frp.enumerate_budgeted ~budget:(Budget.make ()) inst2 ~k:1 with
  | Budget.Partial { best_so_far; reason = Budget.Fault "oracle.node"; _ } -> (
      match best_so_far with
      | Some p -> check "partial package is valid" true (Validity.valid inst2 p)
      | None -> ())
  | _ -> Alcotest.fail "expected Partial fault:oracle.node");
  Fault.disarm ()

(* A PaQL query compiled over a pool big enough for SketchRefine to
   partition (and refine) — the shared workload of the two sketch sites. *)
let sketch_compiled () =
  let rows = List.init 24 (fun i -> [ i; (i mod 7) + 1; (i mod 5) + 1 ]) in
  let db =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "id"; "cost"; "val" ]) rows ]
  in
  Core.Paql_compile.parse_and_compile db
    "SELECT PACKAGE(P) FROM R SUCH THAT SUM(cost) <= 12 AND COUNT(*) <= 4 \
     MAXIMIZE SUM(val)"
  |> Result.get_ok

let test_fault_sketch_partition () =
  let c = sketch_compiled () in
  expect_injected "sketch.partition" (fun () ->
      Sketch.solve ~npartitions:4 c);
  (* retry: the pipeline recovers, and whatever wins is feasible *)
  let o = Sketch.solve ~npartitions:4 c in
  (match o.Sketch.answer with
  | Some a ->
      check "retry package satisfies the query" true
        (Core.Paql_compile.satisfies c a.Core.Paql_compile.package)
  | None -> Alcotest.fail "sketch found no package on retry");
  (* Exhaust mid-partition through the budgeted entry point: the partial
     payload, if any, must still be a feasible package. *)
  Fault.arm ~site:"sketch.partition" ~nth:2 ~kind:Fault.Exhaust;
  (match Sketch.solve_budgeted c with
  | Budget.Partial { best_so_far; reason = Budget.Fault "sketch.partition"; _ }
    -> (
      match best_so_far with
      | Some a ->
          check "partial package satisfies the query" true
            (Core.Paql_compile.satisfies c a.Core.Paql_compile.package)
      | None -> ())
  | Budget.Exact _ -> Alcotest.fail "expected Partial fault:sketch.partition"
  | Budget.Partial _ -> Alcotest.fail "wrong Partial reason");
  Fault.disarm ()

let test_fault_sketch_refine () =
  let c = sketch_compiled () in
  expect_injected "sketch.refine" (fun () -> Sketch.solve ~npartitions:4 c);
  let o = Sketch.solve ~npartitions:4 c in
  check "retry refines at least one partition" true
    (o.Sketch.stats.Sketch.partitions_touched > 0);
  (* Exhaust mid-refine: the deadline lands after the sketch phase, and
     the outcome must still never be an infeasible package. *)
  Fault.arm ~site:"sketch.refine" ~nth:1 ~kind:Fault.Exhaust;
  (match Sketch.solve_budgeted c with
  | Budget.Partial { best_so_far; reason = Budget.Fault "sketch.refine"; _ }
    -> (
      match best_so_far with
      | Some a ->
          check "mid-refine partial package satisfies the query" true
            (Core.Paql_compile.satisfies c a.Core.Paql_compile.package)
      | None -> ())
  | Budget.Exact _ -> Alcotest.fail "expected Partial fault:sketch.refine"
  | Budget.Partial _ -> Alcotest.fail "wrong Partial reason");
  Fault.disarm ()

(* The PB kernel behind PaQL.  An exception at a node reaches the serve
   [paql] verb as a per-request error naming the site; an exhausted
   budget at a node ends SketchRefine in a partial whose package still
   satisfies the query. *)
let test_fault_pb_node () =
  let c = sketch_compiled () in
  expect_injected "pb.node" (fun () -> Core.Paql_compile.solve_exact c);
  check "retry answers" true (Option.is_some (Core.Paql_compile.solve_exact c));
  List.iter
    (fun nth ->
      Fault.arm ~site:"pb.node" ~nth ~kind:Fault.Exhaust;
      Fun.protect ~finally:Fault.disarm @@ fun () ->
      match Sketch.solve_budgeted c with
      | Budget.Partial { best_so_far; reason = Budget.Fault "pb.node"; _ } ->
          Option.iter
            (fun a ->
              check "partial package satisfies the query" true
                (Core.Paql_compile.satisfies c a.Core.Paql_compile.package))
            best_so_far
      | Budget.Exact _ | Budget.Partial _ ->
          Alcotest.fail "expected Partial fault:pb.node")
    [ 1; 3; 10 ];
  let srv =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.domains = 1 }
      [ ("team", Workload.Teams.team_instance ()) ]
  in
  let paql () =
    Serve.Server.one_shot srv
      "paql id=1 inst=team q=\"SELECT PACKAGE(P) FROM expert SUCH THAT \
       SUM(salary) <= 300 AND COUNT(*) <= 3 MAXIMIZE SUM(score)\""
  in
  let faulted =
    Fault.arm ~site:"pb.node" ~nth:1 ~kind:Fault.Exn;
    Fun.protect ~finally:Fault.disarm paql
  in
  Alcotest.(check (option string))
    "paql: error status" (Some "error")
    (Serve.Proto.response_status faulted);
  Alcotest.(check (option string))
    "paql: reason names the site" (Some "fault:pb.node")
    (Serve.Proto.response_reason faulted);
  Alcotest.(check (option string))
    "paql: the next request is answered" (Some "ok")
    (Serve.Proto.response_status (paql ()))

let test_fault_relax_step () =
  let dist = Qlang.Dist.add "num" Qlang.Dist.numeric Qlang.Dist.empty in
  let db =
    Database.of_relations
      [
        Relation.of_int_rows (Schema.make "R" [ "a"; "b" ])
          [ [ 1; 10 ]; [ 2; 20 ]; [ 5; 50 ] ];
      ]
  in
  let inst =
    Instance.make ~db
      ~select:(Qlang.Query.Fo (Qlang.Parser.parse_query "Q(a, b) := R(a, b) & a = 1"))
      ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
      ~budget:1. ~dist ()
  in
  let site = { Relax.kind = Relax.Const_site (Value.Int 1); dfun = "num" } in
  let run () = Relax.qrpp inst ~sites:[ site ] ~k:1 ~bound:20. ~max_gap:10. in
  expect_injected "relax.step" (fun () -> run ());
  check "retry finds the relaxation" true (Option.is_some (run ()));
  Fault.arm ~site:"relax.step" ~nth:1 ~kind:Fault.Exhaust;
  (match Relax.qrpp_budgeted inst ~sites:[ site ] ~k:1 ~bound:20. ~max_gap:10. with
  | Budget.Partial { best_so_far = None; reason = Budget.Fault "relax.step"; _ }
    ->
      ()
  | _ -> Alcotest.fail "expected Unknown Partial fault:relax.step");
  Fault.disarm ()

let test_fault_adjust_delta () =
  let inst = small_inst ~budget:1. () in
  let extra =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "id"; "score" ]) [ [ 9; 9 ] ] ]
  in
  let run () = Adjust.arpp inst ~extra ~k:1 ~bound:4. ~max_changes:1 in
  expect_injected "adjust.delta" (fun () -> run ());
  check "retry finds the empty adjustment" true (run () = Some []);
  Fault.arm ~site:"adjust.delta" ~nth:1 ~kind:Fault.Exhaust;
  (match Adjust.arpp_budgeted inst ~extra ~k:1 ~bound:4. ~max_changes:1 with
  | Budget.Partial
      { best_so_far = None; reason = Budget.Fault "adjust.delta"; _ } ->
      ()
  | _ -> Alcotest.fail "expected Unknown Partial fault:adjust.delta");
  Fault.disarm ()

let test_fault_rel_maintain () =
  (* Unlike the other sites, [rel.maintain] is absorbed at the site: an
     injected fault degrades incremental cache maintenance to the lazy
     from-scratch rebuild instead of surfacing.  Assert the degradation
     (no caches carried over, counter bumped) and that answers are
     unaffected. *)
  let r0 =
    Relation.of_int_rows (Schema.make "R" [ "a"; "b" ]) [ [ 1; 2 ]; [ 3; 4 ] ]
  in
  ignore (Relation.to_array r0);
  ignore (Relation.col_counts r0);
  ignore (Relation.index_on r0 0);
  let tup = Tuple.of_list [ Value.Int 5; Value.Int 6 ] in
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) (fun () ->
      Fault.arm ~site:"rel.maintain" ~nth:1 ~kind:Fault.Exn;
      let r1 = Relation.add tup r0 in
      Fault.disarm ();
      check "degraded add still contains the tuple" true (Relation.mem tup r1);
      check_int "degraded add has the right cardinality" 3
        (Relation.cardinal r1);
      check "degraded result carries no counts" false (Relation.has_counts r1);
      check "degraded result carries no index" false
        (Relation.has_index_on r1 0);
      let degraded =
        match List.assoc_opt "rel.maintain_degraded" (Observe.snapshot ()) with
        | Some (Observe.Count n) -> n
        | _ -> 0
      in
      check_int "degradation counter bumped" 1 degraded;
      (* Lazy rebuild after degradation answers like a fresh relation. *)
      check "rebuilt index answers correctly" true
        (Relation.select_eq r1 0 (Value.Int 5) = [ tup ]);
      (* A clean add maintains instead of degrading: it carries the
         parent's index and counts (the sorted array is never derived). *)
      let r2 = Relation.add (Tuple.of_list [ Value.Int 7; Value.Int 8 ]) r0 in
      check "clean add carries the parent's index and counts" true
        (Relation.has_counts r2 && Relation.has_index_on r2 0));
  (* Exhaust kind propagates: maintenance never swallows budget faults. *)
  Fault.arm ~site:"rel.maintain" ~nth:1 ~kind:Fault.Exhaust;
  (match
     Budget.run ~partial:(fun _ -> None) (fun () -> Relation.add tup r0)
   with
  | Budget.Partial { reason = Budget.Fault "rel.maintain"; _ } -> ()
  | _ -> Alcotest.fail "expected Partial fault:rel.maintain");
  Fault.disarm ()

(* ---------- fault injection: the serving layer ---------- *)

(* Shared shape of the three serving-layer scenarios: boot an
   in-process daemon on a unix socket, arm the site, pipeline two
   requests, and assert that exactly one resolves to a response naming
   the fault (with the status the degradation ladder prescribes) while
   the other is answered exactly — one poisoned request never takes the
   daemon down. *)
let serve_fault_round ~site ~kind ~expected =
  let srv =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.domains = 1 }
      [ ("team", Workload.Teams.team_instance ()) ]
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pkg-robust-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let lfd = Serve.Server.listen_unix path in
  let d = Domain.spawn (fun () -> Serve.Server.run srv lfd) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Domain.join d;
      try Sys.remove path with _ -> ())
    (fun () ->
      Fault.arm ~site ~nth:1 ~kind;
      Fun.protect ~finally:Fault.disarm @@ fun () ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Serve.Client.send_line c "eval id=1 inst=team";
      Serve.Client.send_line c "eval id=2 inst=team";
      let r1 = Option.get (Serve.Client.recv_line c) in
      let r2 = Option.get (Serve.Client.recv_line c) in
      let faulted, clean =
        if Serve.Proto.response_reason r1 = Some ("fault:" ^ site) then (r1, r2)
        else (r2, r1)
      in
      Alcotest.(check (option string))
        (site ^ ": fault reason names the site")
        (Some ("fault:" ^ site))
        (Serve.Proto.response_reason faulted);
      Alcotest.(check (option string))
        (site ^ ": faulted request status")
        (Some expected)
        (Serve.Proto.response_status faulted);
      Alcotest.(check (option string))
        (site ^ ": other request answered exactly")
        (Some "ok")
        (Serve.Proto.response_status clean))

let test_fault_serve_accept () =
  serve_fault_round ~site:"serve.accept" ~kind:Fault.Exn ~expected:"error";
  (* Exhaust at intake sheds instead of erroring. *)
  serve_fault_round ~site:"serve.accept" ~kind:Fault.Exhaust
    ~expected:"overloaded"

let test_fault_serve_dispatch () =
  serve_fault_round ~site:"serve.dispatch" ~kind:Fault.Exn ~expected:"error";
  serve_fault_round ~site:"serve.dispatch" ~kind:Fault.Exhaust
    ~expected:"overloaded"

let test_fault_serve_respond () =
  (* The respond probe fires before any byte is written, so both kinds
     replace the payload with a whole error line — never torn output. *)
  serve_fault_round ~site:"serve.respond" ~kind:Fault.Exn ~expected:"error";
  serve_fault_round ~site:"serve.respond" ~kind:Fault.Exhaust
    ~expected:"error"

let fault_cases =
  [
    ("sat.conflict", test_fault_sat_conflict);
    ("qbf.node", test_fault_qbf_node);
    ("count.node", test_fault_count_node);
    ("maxsat.node", test_fault_maxsat_node);
    ("bnb.node", test_fault_bnb_node);
    ("pb.node", test_fault_pb_node);
    ("memo.candidates", test_fault_memo_candidates);
    ("memo.compat", test_fault_memo_compat);
    ("memo.valid", test_fault_memo_valid);
    ("rel.maintain", test_fault_rel_maintain);
    ("plan.join", test_fault_plan_join);
    ("plan.round", test_fault_plan_round);
    ("oracle.node", test_fault_oracle_node);
    ("sketch.partition", test_fault_sketch_partition);
    ("sketch.refine", test_fault_sketch_refine);
    ("relax.step", test_fault_relax_step);
    ("adjust.delta", test_fault_adjust_delta);
    ("serve.accept", test_fault_serve_accept);
    ("serve.dispatch", test_fault_serve_dispatch);
    ("serve.respond", test_fault_serve_respond);
  ]

let test_every_site_has_a_scenario () =
  Alcotest.(check (list string))
    "fault test matrix covers Fault.sites exactly"
    (List.sort compare Fault.sites)
    (List.sort compare (List.map fst fault_cases))

(* ---------- properties: random budgets never produce unsound answers ---------- *)

let prop_maxsat_budgeted_sound =
  QCheck.Test.make ~name:"MAX-SAT: budgeted partial sound, non-binding exact"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mi = Gen.maxsat rng ~nvars:5 ~nclauses:8 ~max_weight:9 in
      let opt, _ = Maxsat.solve mi in
      let fuel = 1 + Random.State.int rng 60 in
      let bounded =
        match Maxsat.solve_budgeted ~budget:(Budget.make ~fuel ()) mi with
        | Budget.Exact (w, a) -> w = opt && Maxsat.weight_of mi a = w
        | Budget.Partial { best_so_far = Some (w, a); _ } ->
            Maxsat.weight_of mi a = w && w <= opt
        | Budget.Partial { best_so_far = None; _ } -> true
      in
      let nonbinding =
        match Maxsat.solve_budgeted ~budget:(Budget.make ~fuel:max_int ()) mi with
        | Budget.Exact (w, _) -> w = opt
        | Budget.Partial _ -> false
      in
      bounded && nonbinding)

let random_frp_inst rng =
  let n = 3 + Random.State.int rng 3 in
  let rows = List.init n (fun i -> [ i + 1; 1 + Random.State.int rng 9 ]) in
  let db =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "id"; "score" ]) rows ]
  in
  Instance.make ~db ~select:(Qlang.Query.Identity "R")
    ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
    ~budget:2. ()

let prop_frp_budgeted_sound =
  QCheck.Test.make ~name:"FRP: budgeted partial sound, non-binding exact"
    ~count:40
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let inst = random_frp_inst rng in
      let exact = Frp.enumerate inst ~k:1 in
      let value = Rating.eval inst.Instance.value in
      let opt = match exact with Some [ p ] -> value p | _ -> neg_infinity in
      let fuel = 1 + Random.State.int rng 60 in
      let bounded =
        match Frp.enumerate_budgeted ~budget:(Budget.make ~fuel ()) inst ~k:1 with
        | Budget.Exact r -> topk_equal r exact
        | Budget.Partial { best_so_far = Some p; _ } ->
            Validity.valid inst p && value p <= opt
        | Budget.Partial { best_so_far = None; _ } -> true
      in
      let nonbinding =
        match Frp.enumerate_budgeted ~budget:(Budget.make ()) inst ~k:1 with
        | Budget.Exact r -> topk_equal r exact
        | Budget.Partial _ -> false
      in
      bounded && nonbinding)

let prop_sat_cap_never_wrong =
  QCheck.Test.make ~name:"SAT: conflict cap never yields a wrong model"
    ~count:80
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Gen.cnf3 rng ~nvars:5 ~nclauses:10 in
      let cap = 1 + Random.State.int rng 6 in
      match Sat.solve_budgeted ~conflict_limit:cap f with
      | Budget.Exact (Some a) -> Cnf.holds f a
      | Budget.Exact None -> Cnf.brute_force_sat f = None
      | Budget.Partial { best_so_far = None; _ } -> true
      | Budget.Partial { best_so_far = Some _; _ } -> false)

(* ---------- suite ---------- *)

let fault_suite =
  List.map (fun (site, fn) -> Alcotest.test_case site `Quick fn) fault_cases

let full_suite =
  [
    ( "budget",
      [
        Alcotest.test_case "fuel" `Quick test_fuel;
        Alcotest.test_case "deadline" `Quick test_deadline;
        Alcotest.test_case "run outcomes" `Quick test_run_outcomes;
        Alcotest.test_case "reason strings" `Quick test_reason_strings;
        Alcotest.test_case "fault spec parsing" `Quick test_fault_parse;
      ] );
    ( "outcomes",
      [
        Alcotest.test_case "FRP partial sound" `Quick test_frp_budgeted_sound;
        Alcotest.test_case "CPP verified lower bound" `Quick
          test_cpp_budgeted_lower_bound;
        Alcotest.test_case "MBP partial unknown" `Quick test_mbp_budgeted_unknown;
        Alcotest.test_case "QRPP/ARPP partial unknown" `Quick
          test_relax_adjust_budgeted_unknown;
        Alcotest.test_case "non-binding budget equivalence" `Quick
          test_nonbinding_budget_equivalence;
        Alcotest.test_case "SAT conflict cap" `Quick test_sat_conflict_cap;
        Alcotest.test_case "fuel sweep over the conflict-set route" `Quick
          test_fuel_sweep_conflicts;
      ] );
    ( "dispatch",
      [
        Alcotest.test_case "degrades on constant bound" `Quick
          test_degrade_const_bound;
        Alcotest.test_case "degrades on items" `Quick test_degrade_items;
        Alcotest.test_case "generic stays partial" `Quick
          test_generic_stays_partial;
      ] );
    ( "fault",
      Alcotest.test_case "matrix covers all sites" `Quick
        test_every_site_has_a_scenario
      :: fault_suite );
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_maxsat_budgeted_sound;
        QCheck_alcotest.to_alcotest prop_frp_budgeted_sound;
        QCheck_alcotest.to_alcotest prop_sat_cap_never_wrong;
      ] );
  ]

let () =
  let env_site =
    match Sys.getenv_opt "PKG_FAULT" with
    | None | Some "" -> None
    | Some s -> Option.map (fun (site, _, _) -> site) (Fault.parse s)
  in
  match env_site with
  | Some site when List.mem_assoc site fault_cases ->
      (* CI fault matrix: PKG_FAULT armed this site at module load; run
         exactly its scenario (which re-arms deterministically) so the
         injected failure lands in the code under test and nowhere else. *)
      Fault.disarm ();
      Alcotest.run "robust"
        [
          ( "fault:" ^ site,
            [ Alcotest.test_case site `Quick (List.assoc site fault_cases) ] );
        ]
  | _ -> Alcotest.run "robust" full_suite
