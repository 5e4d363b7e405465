(* Tests for the per-instance valid-package index and the certified
   pruning of the walk that fills it:

   - a warmed instance (index stored, then carried through tuple writes
     and [{ inst with value/budget }] swaps) answers every package verb
     exactly as a fresh [Instance.make] does, and as a reference computed
     from the walk's own package list;
   - the pruned walk visits exactly the packages a brute-force filter
     over every subset accepts, in the same order;
   - only completed walks store an index, the cap stops storage, and
     [update_db] keeps the index exactly when it keeps Q(D) and the
     verdicts;
   - swapping the compatibility query on a warmed instance never reads
     the old query's verdicts. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Budget = Robust.Budget
module Teams = Workload.Teams
open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fo text = Qlang.Query.Fo (Qlang.Parser.parse_query text)
let dl text = Qlang.Query.Dl (Qlang.Parser.parse_program text)

let stored inst = Option.is_some (Exist_pack.index (Exist_pack.ctx inst))

let with_tracing f =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect
    ~finally:(fun () ->
      Observe.set_enabled was;
      Observe.reset ())
    f

let counter name =
  match List.assoc_opt name (Observe.snapshot ()) with
  | Some (Observe.Count n) -> n
  | _ -> 0

(* ---------- every verb, as one comparable transcript ---------- *)

let show_pkgs = function
  | None -> "none"
  | Some ps -> String.concat " | " (List.map Package.to_string ps)

let show_pkg = function None -> "none" | Some p -> Package.to_string p

(* The answers of every verb the index serves, in a fixed order, each
   asked of [get ()]: either the same warmed instance every time, or a
   new instance per call, whose searches then walk.  The selections
   handed to RPP are drawn from the instance's own top-k, so both the
   "is a top-k selection" and the witness-printing branches of [explain]
   run. *)
let transcript get =
  let ctx () = Exist_pack.ctx (get ()) in
  let bounds = [ neg_infinity; 8.; 15. ] in
  let lines = ref [] in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  for k = 0 to 3 do
    let top = Frp.enumerate (get ()) ~k in
    say "topk %d: %s" k (show_pkgs top);
    say "dispatch topk %d: %s" k (show_pkgs (Dispatch.topk (get ()) ~k));
    say "stream %d: %s" k
      (String.concat " | "
         (List.map Package.to_string (List.of_seq (Seq.take k (Frp.stream (get ()))))));
    if k >= 1 then begin
      say "maxbound %d: %s" k
        (match Mbp.max_bound (get ()) ~k with None -> "none" | Some v -> string_of_float v);
      (match top with
      | Some sel ->
          say "rpp %d: %b / %s" k (Rpp.is_topk (get ()) sel) (Rpp.explain (get ()) sel)
      | None -> ());
      (* one place down the ranking: not a top-k selection *)
      match Frp.enumerate (get ()) ~k:(k + 1) with
      | Some (_ :: rest) ->
          say "rpp shifted %d: %b / %s" k (Rpp.is_topk (get ()) rest)
            (Rpp.explain (get ()) rest)
      | _ -> ()
    end
  done;
  List.iter
    (fun bound ->
      say "count %g: %d strict %d" bound (Cpp.count (get ()) ~bound)
        (Cpp.count_strict (get ()) ~bound);
      say "dispatch count %g: %d" bound (Dispatch.count (get ()) ~bound);
      for k = 1 to 2 do
        say "find_k %d %g: %s / strict %s" k bound
          (show_pkgs (Exist_pack.find_k_distinct ~bound ~k (ctx ())))
          (show_pkgs (Exist_pack.find_k_distinct ~strict:true ~bound ~k (ctx ())));
        say "is_bound %d %g: %b %b" k bound (Mbp.is_bound (get ()) ~k ~bound)
          (Mbp.is_max_bound (get ()) ~k ~bound)
      done;
      let excluded = Option.value (Frp.enumerate (get ()) ~k:2) ~default:[] in
      let shifted = match excluded with _ :: rest -> rest | [] -> [] in
      say "search %g: %s strict %s excluding %s / %s" bound
        (show_pkg (Exist_pack.search (ctx ()) ~bound ()))
        (show_pkg (Exist_pack.search (ctx ()) ~strict:true ~bound ()))
        (show_pkg (Exist_pack.search (ctx ()) ~excluded ~bound ()))
        (show_pkg (Exist_pack.search (ctx ()) ~excluded:shifted ~bound ()));
      say "search by size %g: %s" bound
        (show_pkg
           (Exist_pack.search (ctx ())
              ~rating:(fun p -> float_of_int (Package.size p))
              ~bound:(bound /. 8.) ()));
      match Exist_pack.candidates (ctx ()) with
      | t :: _ ->
          say "search containing %g: %s" bound
            (show_pkg
               (Exist_pack.search (ctx ()) ~containing:(Package.singleton t) ~bound ()))
      | [] -> ())
    bounds;
  say "all_valid: %s" (show_pkgs (Some (Exist_pack.all_valid (ctx ()))));
  List.rev !lines

(* The same answers derived by plain list code from the package list of a
   walk on a fresh instance (its first call, so a real walk). *)
let reference inst =
  let all = Exist_pack.all_valid (Exist_pack.ctx inst) in
  let value = Rating.eval inst.Instance.value in
  let ranked =
    List.sort
      (fun a b ->
        let c = Float.compare (value b) (value a) in
        if c <> 0 then c else Package.compare a b)
      all
  in
  let topk k =
    if List.length ranked < k then None
    else Some (List.filteri (fun i _ -> i < k) ranked)
  in
  let count ~strict bound =
    List.length
      (List.filter (fun p -> if strict then value p > bound else value p >= bound) all)
  in
  let kth k = Option.map value (List.nth_opt ranked (k - 1)) in
  (all, topk, count, kth)

let agree inst =
  let fresh () =
    Instance.make ~db:inst.Instance.db ~select:inst.Instance.select
      ~compat:inst.Instance.compat ~cost:inst.Instance.cost
      ~value:inst.Instance.value ~budget:inst.Instance.budget
      ~size_bound:inst.Instance.size_bound ()
  in
  let all, topk, count, kth = reference (fresh ()) in
  let warmed = transcript (fun () -> inst) and cold = transcript fresh in
  let ok_ref =
    List.for_all
      (fun k ->
        show_pkgs (Frp.enumerate inst ~k) = show_pkgs (topk k)
        && (k = 0 || Mbp.max_bound inst ~k = kth k))
      [ 0; 1; 2; 3; 5 ]
    && List.for_all
         (fun b ->
           Cpp.count inst ~bound:b = count ~strict:false b
           && Cpp.count_strict inst ~bound:b = count ~strict:true b)
         [ neg_infinity; 5.; 10.; 17. ]
    && List.equal Package.equal (Exist_pack.all_valid (Exist_pack.ctx inst)) all
  in
  if warmed <> cold then
    QCheck.Test.fail_reportf "warmed and fresh answers differ:@.%s@.vs@.%s"
      (String.concat "\n" warmed) (String.concat "\n" cold);
  ok_ref

(* ---------- the differential property ---------- *)

let unrelated_schema = Schema.make "U" [ "x" ]

let values =
  [| Teams.score_value; Rating.neg Teams.score_value; Rating.count; Rating.max_col 3 |]

let budgets = [| 150.; 230.; 300.; 1000. |]

type step =
  | Insert_expert of int
  | Delete_expert of int
  | Insert_conflict of int * int
  | Delete_conflict of int
  | Insert_unrelated of int
  | Delete_unrelated of int
  | Swap_value of int
  | Swap_budget of int

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Insert_expert i) (int_bound 1000));
        (2, map (fun i -> Delete_expert i) (int_bound 1000));
        (2, map2 (fun a b -> Insert_conflict (a, b)) (int_bound 1000) (int_bound 1000));
        (1, map (fun i -> Delete_conflict i) (int_bound 1000));
        (2, map (fun i -> Insert_unrelated i) (int_bound 1000));
        (1, map (fun i -> Delete_unrelated i) (int_bound 1000));
        (2, map (fun i -> Swap_value i) (int_bound 1000));
        (2, map (fun i -> Swap_budget i) (int_bound 1000));
      ])

let show_step = function
  | Insert_expert i -> Printf.sprintf "insert expert %d" i
  | Delete_expert i -> Printf.sprintf "delete expert %d" i
  | Insert_conflict (a, b) -> Printf.sprintf "insert conflict %d %d" a b
  | Delete_conflict i -> Printf.sprintf "delete conflict %d" i
  | Insert_unrelated i -> Printf.sprintf "insert U %d" i
  | Delete_unrelated i -> Printf.sprintf "delete U %d" i
  | Swap_value i -> Printf.sprintf "value %d" (i mod Array.length values)
  | Swap_budget i -> Printf.sprintf "budget %g" budgets.(i mod Array.length budgets)

let nth_tuple inst rel i =
  match Relation.to_list (Database.find inst.Instance.db rel) with
  | [] -> None
  | l -> Some (List.nth l (i mod List.length l))

let eid k = Value.Str ("e" ^ string_of_int k)

let apply inst = function
  | Insert_expert i ->
      Instance.insert_tuple inst "expert"
        (Tuple.of_list
           [
             eid (100 + (i mod 7));
             Value.Str "backend";
             Value.Int (60 + (i mod 80));
             Value.Int (1 + (i mod 9));
           ])
  | Delete_expert i -> (
      match nth_tuple inst "expert" i with
      | Some t -> Instance.delete_tuple inst "expert" t
      | None -> inst)
  | Insert_conflict (a, b) ->
      Instance.insert_tuple inst "conflict"
        (Tuple.of_list [ eid (a mod 12); eid (b mod 12) ])
  | Delete_conflict i -> (
      match nth_tuple inst "conflict" i with
      | Some t -> Instance.delete_tuple inst "conflict" t
      | None -> inst)
  | Insert_unrelated i -> Instance.insert_tuple inst "U" (Tuple.of_ints [ i ])
  | Delete_unrelated i -> (
      match nth_tuple inst "U" i with
      | Some t -> Instance.delete_tuple inst "U" t
      | None -> inst)
  | Swap_value i -> { inst with Instance.value = values.(i mod Array.length values) }
  | Swap_budget i ->
      { inst with Instance.budget = budgets.(i mod Array.length budgets) }

let team_base seed =
  let rng = Random.State.make [| seed |] in
  let nexperts = 7 + Random.State.int rng 5 in
  let db =
    Database.add
      (Relation.of_int_rows unrelated_schema [ [ 1 ]; [ 2 ] ])
      (Teams.random_db rng ~nexperts ~nconflicts:(2 + Random.State.int rng 5))
  in
  Instance.make ~db ~select:(Qlang.Query.Fo Teams.all_experts)
    ~compat:(Instance.Compat_query Teams.no_conflicts) ~cost:Teams.salary_cost
    ~value:Teams.score_value ~budget:300. ~size_bound:(Size_bound.Const 3) ()

let prop_warmed_equals_fresh =
  QCheck.Test.make ~name:"warmed index answers every verb like a fresh instance"
    ~count:15
    QCheck.(
      make
        ~print:(fun (seed, steps) ->
          Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_step steps)))
        Gen.(pair (int_bound 100_000) (list_size (int_range 1 5) gen_step)))
    (fun (seed, steps) ->
      let inst = team_base seed in
      ignore (transcript (fun () -> inst));
      let rec go inst = function
        | [] -> true
        | s :: rest ->
            let inst = apply inst s in
            agree inst && go inst rest
      in
      go inst steps)

(* A [Poly] size bound that binds: the cross product of experts and slots
   gives more candidates than |D|, so the maximum size moves with every
   write to [U], which no query mentions. *)
let poly_base () =
  let db =
    Database.of_relations
      [
        Relation.of_list Teams.expert_schema
          [
            Tuple.of_list [ Value.Str "a"; Value.Str "x"; Value.Int 60; Value.Int 3 ];
            Tuple.of_list [ Value.Str "b"; Value.Str "x"; Value.Int 70; Value.Int 5 ];
            Tuple.of_list [ Value.Str "c"; Value.Str "y"; Value.Int 80; Value.Int 2 ];
          ];
        Relation.of_int_rows (Schema.make "slot" [ "s" ]) [ [ 1 ]; [ 2 ]; [ 3 ] ];
        Relation.of_int_rows unrelated_schema [];
      ]
  in
  Instance.make ~db
    ~select:(fo "Q(e, sc, s) := exists sk, sal. expert(e, sk, sal, sc) & slot(s)")
    ~compat:
      (Instance.Compat_query
         (fo "Qc() := exists e, sc, s. RQ(e, sc, s) & s = 1 & e = \"c\""))
    ~cost:Rating.card_or_infinite ~value:(Rating.sum_col 1) ~budget:100.
    ~size_bound:Size_bound.linear ()

let test_poly_bound_moves () =
  let inst = poly_base () in
  check_int "nine candidates" 9 (Relation.cardinal (Instance.candidates inst));
  ignore (transcript (fun () -> inst));
  let c0 = Cpp.count inst ~bound:neg_infinity in
  let step (inst, prev) i =
    let inst = Instance.insert_tuple inst "U" (Tuple.of_ints [ i ]) in
    check ("agrees after U insert " ^ string_of_int i) true (agree inst);
    let n = Cpp.count inst ~bound:neg_infinity in
    check "a larger bound admits more packages" true (n > prev);
    (inst, n)
  in
  (* |D| goes 6 -> 7 -> 8; the largest compatible package has 8 items *)
  let inst, _ = List.fold_left step (inst, c0) [ 1; 2 ] in
  let inst = Instance.insert_tuple inst "U" (Tuple.of_ints [ 3 ]) in
  check "agrees once the bound no longer binds" true (agree inst);
  let inst =
    List.fold_left
      (fun inst i ->
        let inst = Instance.delete_tuple inst "U" (Tuple.of_ints [ i ]) in
        check ("agrees after U delete " ^ string_of_int i) true (agree inst);
        inst)
      inst [ 2; 1; 3 ]
  in
  check_int "back to the first space" c0 (Cpp.count inst ~bound:neg_infinity)

(* ---------- certified pruning ---------- *)

(* Every subset of the candidates up to the size bound, in the walk's
   canonical (size-lexicographic DFS) order, filtered by [Validity]. *)
let brute_force inst =
  let cands = Relation.to_array (Instance.candidates inst) in
  let max_size = Instance.max_package_size inst in
  let acc = ref [] in
  let rec go pkg i =
    if Validity.valid inst pkg then acc := pkg :: !acc;
    if Package.size pkg < max_size then
      for j = i to Array.length cands - 1 do
        go (Package.add cands.(j) pkg) (j + 1)
      done
  in
  go Package.empty 0;
  List.rev !acc

let compats =
  [|
    ("none", Instance.No_constraint);
    ("cq", Instance.Compat_query Teams.no_conflicts);
    ( "fo: a high earner is required (not pruned)",
      Instance.Compat_query
        (fo "Qc() := not (exists e, sk, sal, sc. RQ(e, sk, sal, sc) & sal > 100)") );
    ( "datalog",
      Instance.Compat_query
        (dl "Bad() :- RQ(a, s1, c1, v1), RQ(b, s2, c2, v2), conflict(a, b). ?- Bad.") );
    ( "datalog with negation: a high earner is required (not pruned)",
      Instance.Compat_query
        (dl "Hi() :- RQ(e, s, c, v), c > 100. Bad() :- expert(e, s, c, v), not Hi(). ?- Bad.")
    );
  |]

let costs =
  [|
    ("salary", Teams.salary_cost);
    ("salary minus 70 (mixed signs)", Rating.sub Teams.salary_cost (Rating.scale 70. Rating.count));
    ("undeclared additive", Rating.sum_col 2);
    ("opaque", Rating.of_fun "opaque" (fun p -> Rating.eval Teams.salary_cost p));
  |]

let prop_pruned_walk_exact =
  QCheck.Test.make ~name:"pruned walk visits exactly the valid packages, in order"
    ~count:40
    QCheck.(triple (int_bound 100_000) (int_bound 4) (int_bound 3))
    (fun (seed, ci, ki) ->
      let rng = Random.State.make [| seed |] in
      let db = Teams.random_db rng ~nexperts:(6 + Random.State.int rng 4) ~nconflicts:4 in
      let _, compat = compats.(ci) and _, cost = costs.(ki) in
      let inst =
        Instance.make ~db ~select:(Qlang.Query.Fo Teams.all_experts) ~compat ~cost
          ~value:Teams.score_value
          ~budget:(float_of_int (100 + Random.State.int rng 250))
          ~size_bound:(Size_bound.Const 4) ()
      in
      List.equal Package.equal (Exist_pack.all_valid (Exist_pack.ctx inst)) (brute_force inst))

let test_prunes_fire () =
  with_tracing @@ fun () ->
  let inst = Teams.team_instance ~salary_budget:250. () in
  ignore (Exist_pack.all_valid (Exist_pack.ctx inst));
  check "an additive cost with non-negative contributions prunes" true
    (counter "oracle.prunes" > 0);
  check "the declared-monotone flag is not what certifies it" false
    (Rating.is_monotone (Rating.sum_col 2));
  Observe.reset ();
  let undeclared = { inst with Instance.cost = Rating.sum_col 2 } in
  ignore (Exist_pack.all_valid (Exist_pack.ctx undeclared));
  check "sum(2) without ~nonneg prunes too" true (counter "oracle.prunes" > 0)

(* ---------- storage rules ---------- *)

let test_only_completed_walks_store () =
  let inst = Teams.team_instance () in
  check "fresh instance: no index" false (stored inst);
  (* an early exit *)
  ignore (Exist_pack.find_k_distinct ~bound:0. ~k:1 (Exist_pack.ctx inst));
  check "an early exit stores nothing" false (stored inst);
  ignore (Exist_pack.search (Exist_pack.ctx inst) ~bound:0. ());
  check "a witness search stores nothing" false (stored inst);
  (* a budget cut *)
  (match Frp.enumerate_budgeted ~budget:(Budget.make ~fuel:3 ()) inst ~k:1 with
  | Budget.Partial _ -> ()
  | Budget.Exact _ -> Alcotest.fail "fuel 3 must interrupt the walk");
  check "a budget-cut walk stores nothing" false (stored inst);
  (* a completed walk, through each filling entry point *)
  let fills =
    [
      ("all_valid", fun i -> ignore (Exist_pack.all_valid (Exist_pack.ctx i)));
      ("iter_valid", fun i -> Exist_pack.iter_valid (Exist_pack.ctx i) ignore);
      ("topk", fun i -> ignore (Frp.enumerate i ~k:1));
      ("count", fun i -> ignore (Cpp.count i ~bound:0.));
      ("count_budgeted", fun i -> ignore (Cpp.count_budgeted i ~bound:0.));
      ("maxbound", fun i -> ignore (Mbp.max_bound i ~k:1));
      ( "find_k_distinct (not found)",
        fun i -> ignore (Exist_pack.find_k_distinct ~bound:1e9 ~k:1 (Exist_pack.ctx i)) );
    ]
  in
  List.iter
    (fun (what, fill) ->
      let i = Teams.team_instance () in
      fill i;
      check (what ^ " stores the index") true (stored i))
    fills

let test_replay_ticks () =
  with_tracing @@ fun () ->
  let inst = Teams.team_instance () in
  ignore (Frp.enumerate inst ~k:2);
  Observe.reset ();
  ignore (Frp.enumerate inst ~k:2);
  check_int "a stored top-2 reads two entries" 2 (counter "oracle.nodes");
  check_int "and walks nothing" 0 (counter "oracle.validated");
  (* fuel and faults still see the replay *)
  (match Frp.enumerate_budgeted ~budget:(Budget.make ~fuel:1 ()) inst ~k:3 with
  | Budget.Partial { reason = Budget.Fuel; _ } -> ()
  | _ -> Alcotest.fail "fuel 1 must interrupt a three-entry read");
  Robust.Fault.arm ~site:"oracle.node" ~nth:1 ~kind:Robust.Fault.Exn;
  (match Cpp.count inst ~bound:10. with
  | _ -> Alcotest.fail "oracle.node must fire on a replay"
  | exception Robust.Fault.Injected "oracle.node" -> ());
  Robust.Fault.disarm ()

let test_cap () =
  with_tracing @@ fun () ->
  (* 75 candidates, no constraint, up to three each: 70,376 valid
     packages *)
  let db =
    Database.of_relations
      [ Relation.of_int_rows (Schema.make "R" [ "a" ]) (List.init 75 (fun i -> [ i ])) ]
  in
  let inst =
    Instance.make ~db ~select:(Qlang.Query.Identity "R") ~cost:Rating.count
      ~value:(Rating.sum_col 0) ~budget:100. ~size_bound:(Size_bound.Const 3) ()
  in
  let n = 1 + 75 + (75 * 74 / 2) + (75 * 74 * 73 / 6) in
  check "more packages than the cap" true (n > Instance.compat_memo_cap);
  (match Frp.enumerate inst ~k:1 with
  | Some [ p ] ->
      check "the best package is the three largest" true
        (Package.equal p (Package.of_tuples (List.map Tuple.of_ints [ [ 72 ]; [ 73 ]; [ 74 ] ])))
  | _ -> Alcotest.fail "a top-1 exists");
  check "past the cap nothing is stored" false (stored inst);
  check_int "and the cap is counted" 1 (counter "memo.valid_capped");
  check_int "answers still come" n (Cpp.count inst ~bound:neg_infinity)

let test_update_keeps_index () =
  with_tracing @@ fun () ->
  let base () =
    let inst = Teams.team_instance () in
    let db = Database.add (Relation.of_int_rows unrelated_schema [ [ 1 ] ]) inst.Instance.db in
    Instance.update_db inst db
  in
  let inst = base () in
  ignore (Frp.enumerate inst ~k:2);
  Observe.reset ();
  let kept = Instance.insert_tuple inst "U" (Tuple.of_ints [ 5 ]) in
  check_int "a write no query reads keeps the index" 1 (counter "memo.valid_kept");
  check "kept" true (stored kept);
  let pair = Tuple.of_list [ Value.Str "ada"; Value.Str "grace" ] in
  let dropped = Instance.insert_tuple kept "conflict" pair in
  check "a write Qc reads drops it" false (stored dropped);
  let dropped' = Instance.delete_tuple kept "expert" (List.hd (Relation.to_list (Database.find kept.Instance.db "expert"))) in
  check "a write Q reads drops it" false (stored dropped');
  check "answers after the kept write" true (agree kept);
  check "answers after the dropping writes" true (agree dropped && agree dropped')

(* ---------- compat memos keyed on the query ---------- *)

let test_compat_swap () =
  let inst = Teams.team_instance () in
  let cands = Relation.to_list (Instance.candidates inst) in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> Package.of_tuples [ a; b ]) cands) cands
  in
  (* warm every memo under the conflict constraint *)
  ignore (Frp.enumerate inst ~k:3);
  List.iter (fun p -> ignore (Validity.compatible inst p)) pairs;
  let before = Instance.compat_route inst in
  let q2 = fo "Qc() := exists e, sk, sal, sc. RQ(e, sk, sal, sc) & sal > 100" in
  let swapped = { inst with Instance.compat = Instance.Compat_query q2 } in
  let fresh =
    Instance.make ~db:inst.Instance.db ~select:inst.Instance.select
      ~compat:(Instance.Compat_query q2) ~cost:inst.Instance.cost
      ~value:inst.Instance.value ~budget:inst.Instance.budget ()
  in
  List.iter
    (fun p ->
      check "swapped verdict equals a fresh instance's" (Validity.compatible fresh p)
        (Validity.compatible swapped p))
    pairs;
  check "swapped top-3 equals a fresh instance's" true
    (show_pkgs (Frp.enumerate swapped ~k:3) = show_pkgs (Frp.enumerate fresh ~k:3));
  check "the swapped instance does not reuse the old route" true
    (match (Instance.compat_route swapped, before) with
    | Some (Instance.Sets a), Some (Instance.Sets b) -> a != b
    | Some (Instance.Delta a), Some (Instance.Delta b) -> a != b
    | Some _, Some _ -> true
    | None, _ | _, None -> false);
  (* and back: the original's verdicts are recomputed, not the swap's *)
  let original = Teams.team_instance () in
  List.iter
    (fun p ->
      check "original verdict after the swap" (Validity.compatible original p)
        (Validity.compatible inst p))
    pairs;
  check "original answers after the swap" true (agree inst)

(* ---------- conflict sets: the CQ/UCQ compatibility route ---------- *)

(* The delta route, whatever the constraint's language: Qc(D ⊕ N) = ∅
   through a delta plan prepared here, bypassing the instance's route and
   verdict memo. *)
let delta_compatible inst pkg qc =
  Qlang.Engine.delta_is_empty
    (Qlang.Engine.delta_prepare inst.Instance.db ~rel:inst.Instance.answer_rel
       ~schema:(Instance.answer_schema inst) qc)
    (Package.to_relation (Instance.answer_schema inst) pkg)

(* The reference semantics: Qc evaluated from scratch over D ⊕ N. *)
let oracle_compatible inst pkg qc =
  let rq = Package.to_relation (Instance.answer_schema inst) pkg in
  Relation.is_empty (Oracle.eval (Database.add rq inst.Instance.db) qc)

let pair_schema name = Schema.make name [ "a"; "b" ]

let random_pairs rng name =
  Relation.of_list (pair_schema name)
    (List.init (2 + Random.State.int rng 6) (fun _ ->
         Tuple.of_ints [ Random.State.int rng 4; Random.State.int rng 4 ]))

(* A random UCQ over RQ(a, b) — Q(D) is R — and the base relation S.
   Terms are variables from a small pool (so RQ atoms repeat them) or
   constants; comparisons read variables the disjunct's atoms bind, so
   every disjunct is safe.  A disjunct may have no RQ atom. *)
let random_ucq rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let term () =
    if Random.State.int rng 5 = 0 then string_of_int (Random.State.int rng 4)
    else pick [| "x"; "y"; "z" |]
  in
  let atom rel = Printf.sprintf "%s(%s, %s)" rel (term ()) (term ()) in
  let disjunct () =
    let nrq = Random.State.int rng 4 in
    let ns = (if nrq = 0 then 1 else 0) + Random.State.int rng 2 in
    let atoms = List.init nrq (fun _ -> atom "RQ") @ List.init ns (fun _ -> atom "S") in
    let text = String.concat " & " atoms in
    let bound =
      List.filter (fun v -> String.contains text v.[0]) [ "x"; "y"; "z" ]
    in
    let cmps =
      if bound = [] then []
      else
        List.init (Random.State.int rng 3) (fun _ ->
            let v = pick (Array.of_list bound) in
            let rhs =
              if Random.State.bool rng then pick (Array.of_list bound)
              else string_of_int (Random.State.int rng 4)
            in
            Printf.sprintf "%s %s %s" v (pick [| "="; "!="; "<"; "<=" |]) rhs)
    in
    let body = String.concat " & " (atoms @ cmps) in
    if bound = [] then "(" ^ body ^ ")"
    else Printf.sprintf "(exists %s. (%s))" (String.concat ", " bound) body
  in
  "Qc() := " ^ String.concat " | " (List.init (1 + Random.State.int rng 3) (fun _ -> disjunct ()))

let prop_conflict_route_exact =
  QCheck.Test.make
    ~name:"conflict-set verdicts = delta verdicts = reference, random UCQ Qc"
    ~count:300 (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = Database.of_relations [ random_pairs rng "R"; random_pairs rng "S" ] in
      let text = random_ucq rng in
      let qc = fo text in
      let inst =
        Instance.make ~db ~select:(fo "Q(a, b) := R(a, b)")
          ~compat:(Instance.Compat_query qc) ~cost:Rating.count ~value:Rating.count
          ~budget:10. ()
      in
      let cands = Relation.to_list (Instance.candidates inst) in
      let routed =
        match Qlang.Query.language qc with
        | L_cq | L_ucq -> not (Qlang.Query.adom_sensitive db qc)
        | _ -> false
      in
      let conflicts =
        match Instance.compat_route inst with
        | Some (Instance.Sets cs) -> Some cs
        | Some (Instance.Delta _) | None -> None
      in
      if routed <> Option.is_some conflicts then
        QCheck.Test.fail_reportf "%s: route %b, conflict sets %b" text routed
          (Option.is_some conflicts);
      if Option.is_some conflicts = Option.is_some (Instance.compat_delta inst) then
        QCheck.Test.fail_reportf "%s: a prepared delta next to the conflict sets" text;
      let inside () =
        Package.of_tuples
          (List.filter (fun _ -> Random.State.int rng 3 = 0) cands)
      in
      let outside () =
        Package.add (Tuple.of_ints [ 4 + Random.State.int rng 2; 0 ]) (inside ())
      in
      List.for_all
        (fun pkg ->
          let verdict = Validity.compatible inst pkg in
          let agree =
            verdict = delta_compatible inst pkg qc
            && verdict = oracle_compatible inst pkg qc
            &&
            match conflicts with
            | Some cs -> (
                match Conflicts.compatible cs pkg with
                | Some v -> v = verdict
                | None -> not (Package.subset_of_relation pkg (Instance.candidates inst)))
            | None -> true
          in
          agree
          || QCheck.Test.fail_reportf "%s: %s conflict route %b, delta %b, reference %b"
               text (Package.to_string pkg) verdict (delta_compatible inst pkg qc)
               (oracle_compatible inst pkg qc))
        (Package.empty :: List.init 6 (fun i -> if i < 4 then inside () else outside ())))

(* One route per constraint: a prepared delta exists exactly when the
   conflict sets do not answer. *)
let test_one_route () =
  let base = Teams.team_instance () in
  let route compat = { base with Instance.compat } in
  let cq = route (Instance.Compat_query Teams.no_conflicts) in
  check "CQ: conflict sets" true
    (match Instance.compat_route cq with Some (Instance.Sets _) -> true | _ -> false);
  check "CQ: no prepared delta" true (Instance.compat_delta cq = None);
  let fo_inst =
    route
      (Instance.Compat_query
         (fo "Qc() := not (exists e, sk, sal, sc. RQ(e, sk, sal, sc) & sal > 100)"))
  in
  check "FO: a prepared delta" true (Option.is_some (Instance.compat_delta fo_inst));
  check "FO: the delta route" true
    (match Instance.compat_route fo_inst with Some (Instance.Delta _) -> true | _ -> false);
  check "no constraint: no route" true
    (Instance.compat_route (route Instance.No_constraint) = None
    && Instance.compat_delta (route Instance.No_constraint) = None)

(* Constraints outside the route keep the memoized delta verdicts, and so
   does a family past the cap. *)
let test_fallbacks () =
  let base = Teams.team_instance ~salary_budget:250. () in
  let build cap =
    Conflicts.build ~cap base.Instance.db Teams.no_conflicts ~answer:(fun () ->
        Relation.rename (Instance.answer_schema base) (Instance.candidates base))
  in
  check "team conflicts fit a cap of 2" true (Option.is_some (build 2));
  check "past a cap of 1: delta route" true (Option.is_none (build 1));
  let routes compat ?(dist = Qlang.Dist.empty) () =
    with_tracing @@ fun () ->
    let inst = { base with Instance.compat; dist } in
    let walked = Exist_pack.all_valid (Exist_pack.ctx (Instance.with_db inst inst.db)) in
    ( List.equal Package.equal walked (brute_force inst),
      counter "compat.conflict_checks",
      counter "compat.conflict_fallbacks",
      counter "memo.compat_hit" + counter "memo.compat_miss" )
  in
  let exact, checks, fallbacks, memo = routes (Instance.Compat_query Teams.no_conflicts) () in
  check "CQ: exact walk" true exact;
  check "CQ: conflict route" true (checks > 0 && fallbacks = 0 && memo = 0);
  List.iter
    (fun (name, compat, dist) ->
      let exact, checks, fallbacks, memo = routes compat ~dist () in
      check (name ^ ": exact walk") true exact;
      check (name ^ ": delta route") true (checks = 0 && fallbacks >= 1 && memo > 0))
    [
      ( "FO",
        Instance.Compat_query
          (fo "Qc() := not (exists e, sk, sal, sc. RQ(e, sk, sal, sc) & sal > 100)"),
        Qlang.Dist.empty );
      ( "dist",
        Instance.Compat_query
          (fo
             "Qc() := exists a, s1, c1, v1, b, s2, c2, v2. RQ(a, s1, c1, v1) & RQ(b, \
              s2, c2, v2) & a != b & dist[gap](c1, c2) <= 2"),
        Qlang.Dist.add "gap" Qlang.Dist.numeric Qlang.Dist.empty );
      ( "adom-sensitive CQ",
        Instance.Compat_query (fo "Qc(x) := exists e, sk, sal, sc. RQ(e, sk, sal, sc) & sal > 110"),
        Qlang.Dist.empty );
    ]

let () =
  Alcotest.run "valid_index"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_warmed_equals_fresh;
          Alcotest.test_case "Poly bound moved by an unrelated write" `Quick
            test_poly_bound_moves;
        ] );
      ( "pruning",
        [
          QCheck_alcotest.to_alcotest prop_pruned_walk_exact;
          Alcotest.test_case "additive costs prune" `Quick test_prunes_fire;
        ] );
      ( "storage",
        [
          Alcotest.test_case "only completed walks store" `Quick
            test_only_completed_walks_store;
          Alcotest.test_case "replays tick" `Quick test_replay_ticks;
          Alcotest.test_case "cap" `Quick test_cap;
          Alcotest.test_case "update_db keeps or drops" `Quick test_update_keeps_index;
        ] );
      ("compat", [ Alcotest.test_case "swapping Qc" `Quick test_compat_swap ]);
      ( "conflicts",
        [
          QCheck_alcotest.to_alcotest prop_conflict_route_exact;
          Alcotest.test_case "other constraints take the delta route" `Quick
            test_fallbacks;
          Alcotest.test_case "a prepared delta only on the delta route" `Quick
            test_one_route;
        ] );
    ]
