(* Mutable-database churn: incremental maintenance of every derived
   structure under tuple insert/delete streams, revision-keyed cache and
   memo invalidation, and the three staleness regressions of the mutation
   layer:

   - a column value whose occurrence count reaches zero must lose its key
     (else distinct counts drift and skew join-order estimates);
   - add-then-remove of the same tuple (net no-op) must hit the original
     plan-cache and compat-memo entries, while a real mutation must never
     serve a stale verdict;
   - a plan compiled before the 65th distinct value arrives on a column
     (the limit of the bitmap index such columns once had) must see the
     new row, and one compiled before a value's last row leaves must not.

   Every property cross-checks the incrementally maintained relation
   against a from-scratch rebuild of the same tuple set. *)

open Qlang
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Stats = Relational.Stats
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let counter_value name =
  match List.assoc_opt name (Observe.snapshot ()) with
  | Some (Observe.Count n) -> n
  | _ -> 0

let with_tracing f =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) f

let q = Parser.parse_query
let p = Parser.parse_program
let pkg rows = Package.of_tuples (List.map Tuple.of_ints rows)

(* The from-scratch oracle: same tuple set, every cache rebuilt lazily. *)
let rebuild r = Relation.of_list (Relation.schema r) (Relation.to_list r)

let rebuild_db db = Database.of_relations (List.map rebuild (Database.relations db))

(* Force every derived structure so add/remove exercises maintenance
   rather than starting from a cold cache. *)
let force_caches r =
  ignore (Relation.to_array r);
  ignore (Relation.col_counts r);
  ignore (Relation.index_on r 0);
  r

let force_db_caches db =
  List.iter (fun r -> ignore (force_caches r)) (Database.relations db);
  db

let counts_agree a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ma mb ->
         Relational.Vmap.cardinal ma = Relational.Vmap.cardinal mb
         && Relational.Vmap.bindings ma = Relational.Vmap.bindings mb)
       a b

(* ---------- regression: zero-count keys are deleted ---------- *)

let test_zero_count_key_deleted () =
  let sch = Schema.make "R" [ "a"; "b" ] in
  let rows = [ [ 1; 10 ]; [ 1; 20 ]; [ 2; 20 ] ] in
  (* Path 1: counts maintained next to every other forced cache. *)
  let r0 = force_caches (Relation.of_int_rows sch rows) in
  (* removing (2,20) drops a=2's count 1 -> 0: the key must go, not stay
     as a zero entry inflating the distinct count *)
  let r1 = Relation.remove (Tuple.of_ints [ 2; 20 ]) r0 in
  check "counts were maintained, not dropped" true (Relation.has_counts r1);
  let fresh = rebuild r1 in
  check "counts match a from-scratch rebuild" true
    (counts_agree (Relation.col_counts r1) (Relation.col_counts fresh));
  Array.iter
    (fun m ->
      List.iter
        (fun (_, n) -> check "no zero-count key survives" true (n > 0))
        (Relational.Vmap.bindings m))
    (Relation.col_counts r1);
  (* Path 2: the counts are the only structure built. *)
  let r0' = Relation.of_int_rows sch rows in
  ignore (Relation.col_counts r0');
  let r1' = Relation.remove (Tuple.of_ints [ 2; 20 ]) r0' in
  check "bare-counts path also matches the rebuild" true
    (counts_agree (Relation.col_counts r1') (Relation.col_counts (rebuild r1')));
  (* The distinct counts feed selectivity: the estimates must agree. *)
  let s_inc = Stats.of_relation r1 and s_new = Stats.of_relation fresh in
  check "selectivity estimates match the rebuild" true
    (Stats.eq_selectivity s_inc 0 = Stats.eq_selectivity s_new 0
    && Stats.eq_selectivity s_inc 1 = Stats.eq_selectivity s_new 1);
  (* An emptied index bucket deletes its key the same way: probing the
     vanished value answers [] through the maintained index. *)
  check "maintained index forgets the vanished value" true
    (Relation.select_eq r1 0 (Value.Int 2) = [])

(* ---------- regression: the 65th distinct value on a column ---------- *)

let test_bitmap_65th_value () =
  let n = 64 in
  let sch = Schema.make "B" [ "k"; "flag" ] in
  let r0 =
    force_caches (Relation.of_int_rows sch (List.init n (fun i -> [ i; i mod 2 ])))
  in
  let select k =
    {
      Ast.name = "Q";
      head = [ "f" ];
      body = Ast.Atom { Ast.rel = "B"; args = [ Ast.Const (Value.Int k); Ast.Var "f" ] };
    }
  in
  (* the (n+1)-th distinct value arrives incrementally; a plan compiled
     before the add must still see the new row when run after it *)
  let tup = Tuple.of_ints [ n; 1 ] in
  let head_q = select n in
  let db0 = Database.of_relations [ r0 ] in
  let t0 = Plan.compile_fo db0 head_q in
  let db1 = Database.insert_tuple "B" tup db0 in
  let ans = Plan.run db1 t0 in
  check "pre-churn plan sees the 65th value" true
    (Relation.mem (Tuple.of_ints [ 1 ]) ans);
  check "plan route agrees with the legacy oracle" true
    (Relation.equal
       (Query.eval db1 (Query.Fo head_q))
       (Oracle.eval db1 (Query.Fo head_q)));
  (* Dual direction: a value leaving its last row reads as empty through a
     plan compiled while it was present, exactly like a rebuild. *)
  let gone_q = select 0 in
  let t_gone = Plan.compile_fo db0 gone_q in
  let db2 = Database.delete_tuple "B" (Tuple.of_ints [ 0; 0 ]) db0 in
  check "vanished value reads empty" true
    (Relation.is_empty (Plan.run db2 t_gone));
  check "removal agrees with the legacy oracle" true
    (Relation.equal (Plan.run db2 t_gone)
       (Oracle.eval db2 (Query.Fo gone_q)))

(* ---------- regressions: memo and plan-cache churn semantics ---------- *)

let churn_db =
  Database.of_relations
    [
      Relation.of_int_rows (Schema.make "R" [ "id"; "score" ])
        [ [ 1; 5 ]; [ 2; 8 ]; [ 3; 2 ] ];
      Relation.of_int_rows (Schema.make "Bad" [ "id" ]) [ [ 9 ] ];
      Relation.of_int_rows (Schema.make "U" [ "x" ]) [ [ 7 ] ];
    ]

(* Two constraints over the same relations: a CQ, answered from its
   conflict sets, and an FO one (a negation), answered by memoized delta
   verdicts.  Both read only RQ and Bad. *)
let cq_compat = "Qc() := exists a, s. RQ(a, s) & Bad(a)"
let fo_compat = "Qc() := exists a, s. RQ(a, s) & Bad(a) & not (s = 0)"

let churn_inst ?(compat = fo_compat) () =
  Instance.make ~db:churn_db
    ~select:(Query.Fo (q "Q(n, s) := R(n, s)"))
    ~compat:(Instance.Compat_query (Query.Fo (q compat)))
    ~cost:Rating.card_or_infinite
    ~value:(Rating.sum_col ~nonneg:true 1)
    ~budget:3. ()

(* The CQ constraint's conflict sets, built by a first check, survive
   [update]: the updated instance answers without a second build. *)
let check_conflicts_kept ~update pk =
  let inst = churn_inst ~compat:cq_compat () in
  let builds () = counter_value "compat.conflict_builds" in
  let checks () = counter_value "compat.conflict_checks" in
  let verdict = Validity.compatible inst pk in
  let b = builds () and c = checks () in
  check "one conflict-set build" true (b = 1);
  check "verdict unchanged" true (Validity.compatible (update inst) pk = verdict);
  check "kept conflict sets answer without a rebuild" true
    (builds () = b && checks () = c + 1)

let test_netnoop_keeps_memo () =
  with_tracing @@ fun () ->
  let inst = churn_inst () in
  ignore (Instance.candidates inst);
  ignore (Query.eval inst.Instance.db inst.Instance.select);
  let pk = pkg [ [ 1; 5 ] ] in
  check "initially compatible" true (Validity.compatible inst pk);
  (* add-then-remove of one tuple restores every revision: the instance
     under the round-tripped database keeps the whole memo *)
  let tup = Tuple.of_ints [ 4; 4 ] in
  let round_trip db = Database.delete_tuple "R" tup (Database.insert_tuple "R" tup db) in
  let db2 = round_trip inst.Instance.db in
  let inst2 = Instance.update_db inst db2 in
  let chits = counter_value "memo.candidates_hit" in
  ignore (Instance.candidates inst2);
  check "net no-op keeps the candidates memo" true
    (counter_value "memo.candidates_hit" = chits + 1);
  let vhits = counter_value "memo.compat_hit" in
  check "verdict unchanged" true (Validity.compatible inst2 pk);
  check "net no-op keeps the verdict memo" true
    (counter_value "memo.compat_hit" = vhits + 1);
  (* and the global plan cache hits again: same fingerprint *)
  let phits = counter_value "plan.cache_hit" in
  ignore (Query.eval db2 inst.Instance.select);
  check "net no-op hits the plan cache" true
    (counter_value "plan.cache_hit" = phits + 1);
  check_conflicts_kept
    ~update:(fun inst -> Instance.update_db inst (round_trip inst.Instance.db))
    (pkg [ [ 1; 5 ] ])

let test_unrelated_mutation_keeps_memo () =
  with_tracing @@ fun () ->
  let inst = churn_inst () in
  ignore (Instance.candidates inst);
  let pk = pkg [ [ 2; 8 ] ] in
  ignore (Validity.compatible inst pk);
  (* U is mentioned by neither Q nor Qc: both memos survive the update *)
  let inst2 = Instance.insert_tuple inst "U" (Tuple.of_ints [ 8 ]) in
  check "candidates memo retained" true
    (counter_value "memo.candidates_kept" = 1);
  check "compat memo retained" true (counter_value "memo.compat_kept" = 1);
  let chits = counter_value "memo.candidates_hit" in
  ignore (Instance.candidates inst2);
  check "retained candidates answer from the memo" true
    (counter_value "memo.candidates_hit" = chits + 1);
  let vhits = counter_value "memo.compat_hit" in
  check "verdict unchanged" true (Validity.compatible inst2 pk);
  check "retained verdicts answer from the memo" true
    (counter_value "memo.compat_hit" = vhits + 1);
  check_conflicts_kept
    ~update:(fun inst -> Instance.insert_tuple inst "U" (Tuple.of_ints [ 8 ]))
    (pkg [ [ 1; 5 ]; [ 2; 8 ] ])

(* The team selection negates only variables its [expert] atom binds: it
   plans as an anti-join, never reads the active domain, and so keeps its
   candidates across a write that brings new values into an unrelated
   relation (the domain changes; no relation the selection reads does). *)
let team_db =
  Database.of_string
    "expert(eid, skill, salary, score)\n\
     1, \"backend\", 50, 7\n\
     2, \"backend\", 60, 8\n\
     3, \"data\", 55, 6\n\
     \n\
     onleave(eid, week)\n\
     2, 14\n\
     \n\
     E(src, dst)\n\
     1, 2\n"

let team_select =
  Query.Fo
    (q "Q(e, sk, sal, sc) := expert(e, sk, sal, sc) & sk = \"backend\" & not \
        (exists w. onleave(e, w))")

let test_guarded_selection_keeps_memo () =
  with_tracing @@ fun () ->
  check "team selection is adom-insensitive" false
    (Query.adom_sensitive team_db team_select);
  let inst =
    Instance.make ~db:team_db ~select:team_select ~compat:Instance.No_constraint
      ~cost:Rating.card_or_infinite
      ~value:(Rating.sum_col ~nonneg:true 3)
      ~budget:2. ()
  in
  let cands = Instance.candidates inst in
  check_int "backend experts not on leave" 1 (Relation.cardinal cands);
  let inst2 = Instance.insert_tuple inst "E" (Tuple.of_ints [ 97; 98 ]) in
  check "candidates memo retained" true
    (counter_value "memo.candidates_kept" = 1);
  let chits = counter_value "memo.candidates_hit" in
  check "same candidates" true (Relation.equal cands (Instance.candidates inst2));
  check "answered from the memo" true
    (counter_value "memo.candidates_hit" = chits + 1)

let test_real_mutation_flips_verdict () =
  with_tracing @@ fun () ->
  let inst = churn_inst () in
  let pk = pkg [ [ 1; 5 ] ] in
  check "initially compatible" true (Validity.compatible inst pk);
  (* memoized: *)
  check "verdict memoized" true (Validity.compatible inst pk);
  check "second ask was a memo hit" true (counter_value "memo.compat_hit" >= 1);
  (* flagging item 1 in Bad is a real mutation of a Qc dependency: the
     memo entry must not survive to serve the stale [true] *)
  let inst2 = Instance.insert_tuple inst "Bad" (Tuple.of_ints [ 1 ]) in
  check "real mutation flips the verdict" false (Validity.compatible inst2 pk);
  check "compat memo was not retained" true
    (counter_value "memo.compat_kept" = 0);
  (* the other direction: deleting the flag restores compatibility *)
  let inst3 = Instance.delete_tuple inst2 "Bad" (Tuple.of_ints [ 1 ]) in
  check "deleting the flag restores the verdict" true
    (Validity.compatible inst3 pk)

(* ---------- differential Datalog delta: frozen vs live strata ---------- *)

let test_differential_datalog () =
  let db =
    force_db_caches
      (Database.of_relations
         [
           Relation.of_int_rows (Schema.make "E" [ "s"; "d" ])
             [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ];
         ])
  in
  let rq_schema = Schema.make "RQ" [ "id"; "score" ] in
  (* T is independent of RQ (frozen); Ans joins against it (live). *)
  let prog =
    p
      "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z). Ans(x,z) :- T(x,z), \
       RQ(x, s). ?- Ans."
  in
  let d = Plan.delta_prepare_datalog db ~rel:"RQ" ~schema:rq_schema prog in
  check_int "transitive closure froze" 1 (Plan.delta_cached_nodes d);
  let agree rq =
    Relation.equal (Plan.delta_eval d rq)
      (Oracle.eval (Database.add rq db) (Query.Dl prog))
  in
  check "delta = from-scratch (one item)" true
    (agree (Relation.of_int_rows rq_schema [ [ 1; 5 ] ]));
  check "delta = from-scratch (two items)" true
    (agree (Relation.of_int_rows rq_schema [ [ 2; 5 ]; [ 3; 1 ] ]));
  check "delta = from-scratch (empty)" true
    (agree (Relation.empty rq_schema));
  (* A program that never mentions RQ freezes whole — including the
     answer, which must then flow back out of the overlay. *)
  let tc = p "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z). ?- T." in
  let d2 = Plan.delta_prepare_datalog db ~rel:"RQ" ~schema:rq_schema tc in
  check_int "everything froze" 1 (Plan.delta_cached_nodes d2);
  check "frozen answer still evaluates" true
    (Relation.equal
       (Plan.delta_eval d2 (Relation.of_int_rows rq_schema [ [ 1; 1 ] ]))
       (Oracle.eval db (Query.Dl tc)))

(* ---------- property: maintained structures = from-scratch rebuild ---------- *)

let prop_incremental_structures =
  QCheck.Test.make
    ~name:"churn: every maintained cache agrees with a from-scratch rebuild"
    ~count:80 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sch = Schema.make "R" [ "a"; "b" ] in
      let r0 =
        force_caches (Workload.Random_db.relation rng sch ~rows:10 ~domain:5)
      in
      let r = ref r0 in
      let ok = ref true in
      let steps = 1 + Random.State.int rng 24 in
      for _ = 1 to steps do
        let tup =
          Tuple.of_ints [ Random.State.int rng 6; Random.State.int rng 6 ]
        in
        (r :=
           if Random.State.bool rng then Relation.add tup !r
           else Relation.remove tup !r);
        let fresh = rebuild !r in
        let probes = List.init 6 (fun v -> Value.Int v) in
        let mem tup = Relation.mem tup !r in
        ok :=
          !ok
          && Relation.has_counts !r (* maintained, never degraded *)
          && Relation.to_list !r = Relation.to_list fresh
          && Relation.values !r = Relation.values fresh
          && Relation.equal !r fresh
          && Relation.for_all mem fresh
          && (not (mem (Tuple.of_ints [ 9; 9 ])))
          && counts_agree (Relation.col_counts !r) (Relation.col_counts fresh)
          && List.for_all
               (fun v ->
                 Relation.select_eq !r 0 v = Relation.select_eq fresh 0 v)
               probes
      done;
      !ok)

(* ---------- property: value-keyed indexes and counts under churn ---------- *)

(* Int and string values from a small domain, so that chains revisit
   values and [Value.compare] crosses domain tags. *)
let random_value rng domain =
  let k = Random.State.int rng domain in
  if Random.State.bool rng then Value.Int k else Value.Str (string_of_int k)

let domain_values domain =
  List.concat_map
    (fun k -> [ Value.Int k; Value.Str (string_of_int k) ])
    (List.init domain Fun.id)

(* Every column's index answers every domain value — and a value that
   never occurs — like a from-scratch rebuild, and the counts agree. *)
let caches_agree r ~domain =
  let fresh = rebuild r in
  let probes = Value.Str "never-seen" :: domain_values domain in
  counts_agree (Relation.col_counts r) (Relation.col_counts fresh)
  && List.for_all
       (fun col ->
         let ix = Relation.index_on r col and ix' = Relation.index_on fresh col in
         List.for_all (fun v -> Relation.probe ix v = Relation.probe ix' v) probes)
       (List.init (Relation.arity r) Fun.id)

let force_all r =
  ignore (Relation.col_counts r);
  List.iter (fun col -> ignore (Relation.index_on r col)) (List.init (Relation.arity r) Fun.id)

let prop_index_counts_chain =
  QCheck.Test.make
    ~name:"indexes and counts: random add/remove chain = rebuild, every column and value"
    ~count:150 ~long_factor:20 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 1 + Random.State.int rng 3 in
      let domain = 2 + Random.State.int rng 4 in
      let sch = Schema.make "R" (List.init arity (Printf.sprintf "c%d")) in
      let tup () = Tuple.of_list (List.init arity (fun _ -> random_value rng domain)) in
      let r = ref (Relation.of_list sch (List.init (Random.State.int rng 12) (fun _ -> tup ()))) in
      force_all !r;
      let steps = 1 + Random.State.int rng 30 in
      let fault_step = Random.State.int rng steps in
      let ok = ref true in
      for step = 0 to steps - 1 do
        let t =
          (* removals mostly hit a present tuple *)
          match Relation.to_list !r with
          | _ :: _ as l when Random.State.int rng 3 = 0 ->
              List.nth l (Random.State.int rng (List.length l))
          | _ -> tup ()
        in
        let write = if Random.State.bool rng then Relation.add t else Relation.remove t in
        if step = fault_step then begin
          (* an injected fault drops the derived structures; the lazy
             rebuild must agree too, and later writes maintain it again *)
          Robust.Fault.arm ~site:"rel.maintain" ~nth:1 ~kind:Robust.Fault.Exn;
          r := Fun.protect ~finally:Robust.Fault.disarm (fun () -> write !r);
          ok := !ok && caches_agree !r ~domain
        end
        else begin
          let parent = !r in
          r := write parent;
          (* a write maintains every structure (a no-op write returns the
             parent itself) *)
          ok :=
            !ok
            && Relation.has_counts !r
            && List.for_all (Relation.has_index_on !r) (List.init arity Fun.id)
            && caches_agree !r ~domain
        end
      done;
      !ok)

(* ---------- regression: the write path interns nothing ---------- *)

let test_writes_leave_intern_pool () =
  (* Indexes and counts are keyed by values: inserting a stream of values
     no relation has held — churn-teams' fresh expert ids — and reading
     them back through a plan must not grow the process-wide interning
     pool, which never shrinks. *)
  let sch = Schema.make "E" [ "a"; "b" ] in
  let db =
    ref (Database.of_relations [ force_caches (Relation.of_int_rows sch [ [ 1; 2 ]; [ 2; 3 ] ]) ])
  in
  let q = Plan.compile_fo !db (q "Q(y) := exists x. E(x, y) & x = \"fresh-3\"") in
  let before = Relational.Intern.size () in
  for i = 0 to 199 do
    let v = Value.Str (Printf.sprintf "fresh-%d" i) in
    db := Database.insert_tuple "E" (Tuple.of_list [ v; Value.Int i ]) !db;
    if i mod 50 = 0 then ignore (Stats.of_database !db)
  done;
  db := Database.delete_tuple "E" (Tuple.of_list [ Value.Str "fresh-7"; Value.Int 7 ]) !db;
  check "the plan reads the fresh value back" true
    (Relation.to_list (Plan.run !db q) = [ Tuple.of_ints [ 3 ] ]);
  check "every write maintained the index and counts" true
    (Relation.has_counts (Database.find !db "E")
    && Relation.has_index_on (Database.find !db "E") 0);
  check_int "interning pool unchanged" before (Relational.Intern.size ())

(* ---------- property: churn agreement, six languages, cached and fresh plans ---------- *)

let lang_queries =
  [
    Query.Fo (q "Q(n, s) := L(n, s) & s > 2") (* SP *);
    Query.Fo (q "Q(n, s) := exists m. E(n, m) & L(n, s)") (* CQ *);
    Query.Fo
      (q
         "Q(n, s) := (exists m. E(n, m) & L(n, s)) | (exists m. E(m, n) & \
          L(n, s))") (* UCQ *);
    Query.Fo
      (q "Q(n, s) := L(n, s) & (exists m. (E(n, m) | E(m, n)) & L(m, 7))")
    (* ∃FO⁺ *);
    Query.Fo (q "Q(n, s) := L(n, s) & not (exists m. E(n, m))") (* FO *);
  ]

let nr_program =
  p "Hop2(n, s) :- E(n, m), E(m, o), L(o, s). ?- Hop2." (* DATALOGnr *)

let tc_program =
  p "T(x,y) :- E(x,y). T(x,z) :- E(x,y), T(y,z). ?- T." (* DATALOG *)

let prop_churn_all_languages =
  QCheck.Test.make
    ~name:
      "churn: cached and fresh plans = Query.eval_legacy after random \
       add/remove streams, six languages"
    ~count:40 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db0 =
        force_db_caches
          (Database.of_relations
             [
               Workload.Random_db.relation rng (Schema.make "E" [ "s"; "d" ])
                 ~rows:8 ~domain:6;
               Workload.Random_db.relation rng (Schema.make "L" [ "n"; "v" ])
                 ~rows:8 ~domain:6;
             ])
      in
      (* random interleaved insert/delete stream over both relations *)
      let steps = 1 + Random.State.int rng 12 in
      let db = ref db0 in
      for _ = 1 to steps do
        let name = if Random.State.bool rng then "E" else "L" in
        let tup =
          Tuple.of_ints [ Random.State.int rng 8; Random.State.int rng 8 ]
        in
        db :=
          (if Random.State.bool rng then Database.insert_tuple
           else Database.delete_tuple)
            name tup !db
      done;
      let churned = !db in
      let oracle_db = rebuild_db churned in
      let fo_ok =
        List.for_all
          (fun query ->
            let reference = Oracle.eval oracle_db query in
            Relation.equal reference (Query.eval churned query)
            &&
            match query with
            | Query.Fo fq ->
                Relation.equal reference
                  (Plan.run churned (Plan.compile_fo churned fq))
            | _ -> true)
          lang_queries
      in
      let dl_ok =
        List.for_all
          (fun prog ->
            Relation.equal
              (Oracle.eval oracle_db (Query.Dl prog))
              (Plan.run churned (Plan.compile_datalog churned prog)))
          [ nr_program; tc_program ]
      in
      fo_ok && dl_ok)

(* ---------- suite ---------- *)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "churn"
    [
      ( "regressions",
        [
          Alcotest.test_case "zero-count key deleted on remove" `Quick
            test_zero_count_key_deleted;
          Alcotest.test_case "bitmap 65th-value boundary" `Quick
            test_bitmap_65th_value;
          Alcotest.test_case "net no-op keeps plan cache and memos" `Quick
            test_netnoop_keeps_memo;
          Alcotest.test_case "unrelated mutation keeps memos" `Quick
            test_unrelated_mutation_keeps_memo;
          Alcotest.test_case "real mutation never serves a stale verdict"
            `Quick test_real_mutation_flips_verdict;
          Alcotest.test_case "guarded selection keeps memo across domain growth"
            `Quick test_guarded_selection_keeps_memo;
          Alcotest.test_case "writes leave the interning pool unchanged" `Quick
            test_writes_leave_intern_pool;
        ] );
      ( "differential",
        [
          Alcotest.test_case "datalog frozen/live strata" `Quick
            test_differential_datalog;
        ]
        @ qsuite
            [ prop_incremental_structures; prop_index_counts_chain; prop_churn_all_languages ] );
    ]
