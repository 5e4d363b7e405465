(* Tests for the Observe telemetry library and its integration points:
   counters, timers, spans, capture/absorb, deterministic accounting under
   the parallel Pool, the DPLL solver's event counts, and PKG_DOMAINS
   parsing. *)

module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count name snap =
  match List.assoc_opt name snap with
  | Some (Observe.Count n) -> n
  | Some (Observe.Span { entries; _ }) -> entries
  | None -> 0

(* Every test runs with tracing force-enabled and a clean slate, and
   leaves the switch off so the rest of the binary is unaffected. *)
let traced f () =
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled false) f

(* ---------- counters and timers ---------- *)

let c_basic = Observe.counter "test.basic"
let t_outer = Observe.timer "test.outer"
let t_inner = Observe.timer "test.inner"

let test_counter_basics () =
  Observe.bump c_basic;
  Observe.add c_basic 4;
  check_int "bump + add" 5 (count "test.basic" (Observe.snapshot ()));
  Observe.reset ();
  check_int "reset zeroes" 0 (count "test.basic" (Observe.snapshot ()))

let test_registration_idempotent () =
  let c1 = Observe.counter "test.same" in
  let c2 = Observe.counter "test.same" in
  Observe.bump c1;
  Observe.bump c2;
  check_int "one cell behind the name" 2
    (count "test.same" (Observe.snapshot ()));
  match Observe.timer "test.same" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering as the other kind must be rejected"

let test_disabled_is_noop () =
  Observe.set_enabled false;
  Observe.bump c_basic;
  Observe.add c_basic 10;
  let r = Observe.span t_outer (fun () -> 42) in
  Observe.set_enabled true;
  check_int "span still runs the thunk" 42 r;
  check_int "nothing recorded" 0 (count "test.basic" (Observe.snapshot ()));
  check_int "no span entries" 0 (count "test.outer" (Observe.snapshot ()))

let test_span_nesting () =
  let r =
    Observe.span t_outer (fun () ->
        Observe.span t_inner (fun () -> Observe.span t_inner (fun () -> 7)))
  in
  check_int "result through spans" 7 r;
  let snap = Observe.snapshot () in
  check_int "outer entries" 1 (count "test.outer" snap);
  check_int "inner entries" 2 (count "test.inner" snap);
  (match List.assoc "test.outer" snap with
  | Observe.Span { seconds; _ } -> check "duration nonneg" true (seconds >= 0.)
  | _ -> Alcotest.fail "timer snapshots as a span")

let test_span_records_on_raise () =
  (match Observe.span t_outer (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  check_int "entry recorded despite the raise" 1
    (count "test.outer" (Observe.snapshot ()))

let test_capture_absorb () =
  let r, d = Observe.capture (fun () -> Observe.bump c_basic; 42) in
  check_int "captured result" 42 r;
  check_int "events diverted, not global" 0
    (count "test.basic" (Observe.snapshot ()));
  Observe.absorb d;
  check_int "absorb replays" 1 (count "test.basic" (Observe.snapshot ()));
  (* a discarded capture simply never lands *)
  let _, d' = Observe.capture (fun () -> Observe.add c_basic 100) in
  ignore d';
  check_int "discard drops" 1 (count "test.basic" (Observe.snapshot ()))

let test_diff_nonzero () =
  let before = Observe.snapshot () in
  Observe.add c_basic 3;
  let d = Observe.diff before (Observe.snapshot ()) in
  check_int "diff isolates the increment" 3 (count "test.basic" d);
  let nz = Observe.nonzero d in
  check "zeros dropped" true
    (List.for_all (function _, Observe.Count 0 -> false | _ -> true) nz);
  check "increment kept" true (List.mem_assoc "test.basic" nz)

let test_rendering () =
  Observe.add c_basic 2;
  let snap = Observe.nonzero (Observe.snapshot ()) in
  let text = Observe.to_text snap in
  let json = Observe.to_json snap in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "text groups by prefix" true (contains text "test:");
  check "text has the counter" true (contains text "test.basic");
  check "json object" true
    (String.length json >= 2 && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  check "json has the counter" true (contains json "\"test.basic\": 2")

(* ---------- deterministic accounting under Pool ---------- *)

let c_work = Observe.counter "test.work"

let test_pool_map_deterministic () =
  let totals =
    List.map
      (fun domains ->
        Observe.reset ();
        let r = Parallel.Pool.map ~domains 20 (fun i -> Observe.bump c_work; i) in
        check "map result" true (r = List.init 20 Fun.id);
        (count "test.work" (Observe.snapshot ()),
         count "pool.tasks" (Observe.snapshot ())))
      [ 1; 4 ]
  in
  List.iter
    (fun (work, tasks) ->
      check_int "every task counted once" 20 work;
      check_int "pool.tasks matches" 20 tasks)
    totals

let test_pool_find_first_deterministic () =
  (* the speculative losers of the parallel search must not leak into the
     totals: whatever the interleaving, the counts equal the sequential
     left-to-right search's *)
  List.iter
    (fun domains ->
      Observe.reset ();
      let r =
        Parallel.Pool.find_first ~domains 32 (fun i ->
            Observe.bump c_work;
            if i = 7 then Some i else None)
      in
      check "hit found" true (r = Some 7);
      check_int
        (Printf.sprintf "tasks 0..7 counted (domains=%d)" domains)
        8
        (count "test.work" (Observe.snapshot ())))
    [ 1; 4 ];
  (* a miss executes every task, under either schedule *)
  List.iter
    (fun domains ->
      Observe.reset ();
      let r = Parallel.Pool.find_first ~domains 16 (fun i ->
          Observe.bump c_work; ignore i; None) in
      check "no hit" true (r = None);
      check_int "all tasks counted" 16 (count "test.work" (Observe.snapshot ())))
    [ 1; 4 ]

(* ---------- oracle / memo counters across domain counts ---------- *)

let team_instance () =
  let db =
    Database.of_relations
      [
        Relation.of_int_rows (Schema.make "R" [ "id"; "score" ])
          [ [ 1; 5 ]; [ 2; 3 ]; [ 3; 8 ]; [ 4; 1 ]; [ 5; 6 ]; [ 6; 2 ] ];
      ]
  in
  let compat =
    Qlang.Parser.parse_query
      "Qc() := exists a, s, b, s2. RQ(a, s) & RQ(b, s2) & s = s2 & a != b"
  in
  Core.Instance.make ~db ~select:(Qlang.Query.Identity "R")
    ~compat:(Core.Instance.Compat_query (Qlang.Query.Fo compat))
    ~cost:Core.Rating.card_or_infinite
    ~value:(Core.Rating.sum_col ~nonneg:true 1) ~budget:3. ()

let work_counters snap =
  (* the deterministic work counters; pool.* describes the execution
     shape and legitimately varies with the domain count, and timers
     carry wall-clock seconds *)
  List.filter
    (fun (name, v) ->
      (match v with Observe.Count _ -> true | Observe.Span _ -> false)
      && not (String.length name >= 5 && String.sub name 0 5 = "pool."))
    snap

let test_all_valid_counters_domain_independent () =
  let run domains =
    Observe.reset ();
    let inst = team_instance () in
    let pkgs = Core.Exist_pack.all_valid (Core.Exist_pack.ctx ~domains inst) in
    (pkgs, work_counters (Observe.nonzero (Observe.snapshot ())))
  in
  (* The plan cache is process-wide: a first run compiles plans that the
     later runs find cached, whatever their domain count. *)
  ignore (run 1);
  let pkgs1, snap1 = run 1 in
  let pkgs4, snap4 = run 4 in
  check "same packages" true (List.equal Core.Package.equal pkgs1 pkgs4);
  check "oracle/memo counters identical across domain counts" true
    (snap1 = snap4);
  check "oracle.nodes nonzero" true (count "oracle.nodes" snap1 > 0);
  (* The team constraint is a CQ: one conflict-set build before the walk
     fans out, then every verdict is a subset test. *)
  check_int "one conflict-set build" 1 (count "compat.conflict_builds" snap1);
  check "conflict route answers" true (count "compat.conflict_checks" snap1 > 0);
  check_int "no delta verdicts" 0
    (count "memo.compat_hit" snap1 + count "memo.compat_miss" snap1)

(* Prewarming the team instance resolves its CQ constraint to conflict
   sets and so never prepares the delta plan those sets make redundant. *)
let test_prewarm_skips_delta () =
  let inst = Workload.Teams.team_instance () in
  Core.Instance.prewarm inst;
  let snap = Observe.snapshot () in
  check_int "one conflict-set build" 1 (count "compat.conflict_builds" snap);
  check_int "no delta preparation" 0 (count "plan.delta_prepares" snap)

(* ---------- DPLL telemetry ---------- *)

(* PHP(3,2): three pigeons, two holes — a fixed UNSAT instance that forces
   decisions, propagations, conflicts and trail unwinds. *)
let php32 =
  Solvers.Cnf.make ~nvars:6
    [
      [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ];
      [ -1; -3 ]; [ -1; -5 ]; [ -3; -5 ];
      [ -2; -4 ]; [ -2; -6 ]; [ -4; -6 ];
    ]

let test_sat_counters () =
  let run () =
    Observe.reset ();
    let r = Solvers.Sat.solve php32 in
    (r, Observe.nonzero (Observe.snapshot ()))
  in
  let r1, s1 = run () in
  let r2, s2 = run () in
  check "unsat" true (r1 = None);
  check_int "one solve" 1 (count "sat.solves" s1);
  check "decisions counted" true (count "sat.decisions" s1 > 0);
  check "conflicts counted" true (count "sat.conflicts" s1 > 0);
  check "propagations counted" true (count "sat.propagations" s1 > 0);
  check "unwinds counted" true (count "sat.trail_unwinds" s1 > 0);
  (* the solver is deterministic, so its telemetry is too (timers aside) *)
  check "reproducible" true
    (work_counters s1 = work_counters s2 && r1 = r2)

(* ---------- PKG_DOMAINS parsing (config edge case) ---------- *)

let test_parse_domains () =
  let recommended = Domain.recommended_domain_count () in
  check_int "unset uses recommended" recommended
    (Parallel.Pool.parse_domains None);
  check_int "plain integer" 4 (Parallel.Pool.parse_domains (Some "4"));
  check_int "whitespace tolerated" 6 (Parallel.Pool.parse_domains (Some " 6 "));
  check_int "zero clamps to 1" 1 (Parallel.Pool.parse_domains (Some "0"));
  check_int "negative clamps to 1" 1 (Parallel.Pool.parse_domains (Some "-3"));
  List.iter
    (fun bad ->
      let warned = ref None in
      let n =
        Parallel.Pool.parse_domains ~warn:(fun m -> warned := Some m) (Some bad)
      in
      check_int ("unparseable " ^ bad ^ " falls back") recommended n;
      match !warned with
      | None -> Alcotest.failf "no warning for %S" bad
      | Some m ->
          check "warning names the variable" true
            (String.length m >= 11 && String.sub m 0 11 = "PKG_DOMAINS"))
    [ "auto"; "4x"; ""; "many" ];
  (* a parseable value must not warn *)
  let warned = ref false in
  ignore (Parallel.Pool.parse_domains ~warn:(fun _ -> warned := true) (Some "2"));
  check "no warning on valid input" false !warned

let () =
  Alcotest.run "observe"
    [
      ( "core",
        [
          Alcotest.test_case "counter basics" `Quick (traced test_counter_basics);
          Alcotest.test_case "idempotent registration" `Quick
            (traced test_registration_idempotent);
          Alcotest.test_case "disabled is a no-op" `Quick
            (traced test_disabled_is_noop);
          Alcotest.test_case "span nesting" `Quick (traced test_span_nesting);
          Alcotest.test_case "span records on raise" `Quick
            (traced test_span_records_on_raise);
          Alcotest.test_case "capture and absorb" `Quick
            (traced test_capture_absorb);
          Alcotest.test_case "diff and nonzero" `Quick (traced test_diff_nonzero);
          Alcotest.test_case "text and json rendering" `Quick
            (traced test_rendering);
        ] );
      ( "pool",
        [
          Alcotest.test_case "map totals domain-independent" `Quick
            (traced test_pool_map_deterministic);
          Alcotest.test_case "find_first totals domain-independent" `Quick
            (traced test_pool_find_first_deterministic);
        ] );
      ( "integration",
        [
          Alcotest.test_case "all_valid counters domain-independent" `Quick
            (traced test_all_valid_counters_domain_independent);
          Alcotest.test_case "prewarm skips the delta" `Quick
            (traced test_prewarm_skips_delta);
          Alcotest.test_case "DPLL event counts" `Quick (traced test_sat_counters);
        ] );
      ( "config",
        [ Alcotest.test_case "PKG_DOMAINS parsing" `Quick test_parse_domains ] );
    ]
