(* Differential tests for the {!Solvers.Bnb} kernel refactor: the SAT,
   MaxSAT and package-oracle searches were re-expressed as kernel
   instantiations, and these tests pin their answers (and for the oracle,
   the exact witness order) against independent reference implementations
   — brute force over all assignments, and a naive subset enumerator that
   never saw the kernel. *)

module Bnb = Solvers.Bnb
module Cnf = Solvers.Cnf
module Sat = Solvers.Sat
module Maxsat = Solvers.Maxsat
module Gen = Solvers.Gen
module Package = Core.Package
module Exist_pack = Core.Exist_pack
module Instance = Core.Instance
module Validity = Core.Validity
module Rating = Core.Rating
module Tuple = Relational.Tuple

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Trail ---------- *)

let test_trail_marks () =
  let log = ref [] in
  let tr = Bnb.Trail.create ~undo:(fun x -> log := x :: !log) () in
  let m0 = Bnb.Trail.mark tr in
  Bnb.Trail.push tr 1;
  Bnb.Trail.push tr 2;
  let m1 = Bnb.Trail.mark tr in
  Bnb.Trail.push tr 3;
  Bnb.Trail.push tr 4;
  (* Second-mark discipline: unwinding to the inner mark undoes only the
     entries pushed after it, most recent first. *)
  Bnb.Trail.undo_to tr m1;
  Alcotest.(check (list int)) "inner unwind order" [ 4; 3 ] (List.rev !log);
  Bnb.Trail.undo_to tr m1;
  Alcotest.(check (list int)) "unwind to current mark is a no-op" [ 4; 3 ]
    (List.rev !log);
  Bnb.Trail.undo_to tr m0;
  Alcotest.(check (list int)) "outer unwind order" [ 4; 3; 2; 1 ]
    (List.rev !log)

let test_trail_unwind_counter () =
  let c = Observe.counter "test.bnb_unwinds" in
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) @@ fun () ->
  let tr = Bnb.Trail.create ~unwinds:c ~undo:(fun _ -> ()) () in
  let m = Bnb.Trail.mark tr in
  Bnb.Trail.undo_to tr m;
  (* empty unwind: not counted *)
  Bnb.Trail.push tr 1;
  Bnb.Trail.push tr 2;
  Bnb.Trail.undo_to tr m;
  (* one real unwind popping two entries: counted once *)
  let n =
    match List.assoc_opt "test.bnb_unwinds" (Observe.snapshot ()) with
    | Some (Observe.Count n) -> n
    | _ -> -1
  in
  check_int "one bump per non-empty unwind" 1 n

(* ---------- Incumbent ---------- *)

let test_incumbent () =
  let improvements = ref [] in
  let inc =
    Bnb.Incumbent.create
      ~on_improve:(fun v x -> improvements := (v, x) :: !improvements)
      ()
  in
  check "empty value never prunes" true
    (Bnb.Incumbent.value inc = neg_infinity);
  Bnb.Incumbent.note inc 1.0 "a";
  Bnb.Incumbent.note inc 1.0 "b";
  (* tie: keeps the earlier witness *)
  Bnb.Incumbent.note inc 2.0 "c";
  Bnb.Incumbent.note inc 0.5 "d";
  (match Bnb.Incumbent.best inc with
  | Some (v, x) ->
      check "best value" true (v = 2.0);
      Alcotest.(check string) "best witness" "c" x
  | None -> Alcotest.fail "incumbent empty");
  Alcotest.(check (list string))
    "on_improve fired once per strict improvement" [ "a"; "c" ]
    (List.rev_map snd !improvements)

(* ---------- Make: a tiny knapsack space with a sound bound ---------- *)

(* 0/1 knapsack over items (value, weight), kernel bound = value so far +
   sum of remaining values (sound, loose).  The brute-force reference
   enumerates all subsets by mask. *)
let knapsack_brute items cap =
  let n = Array.length items in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0.0 and w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v +. fst items.(i);
        w := !w + snd items.(i)
      end
    done;
    if !w <= cap && !v > !best then best := !v
  done;
  !best

let test_make_knapsack_diff () =
  let rng = Random.State.make [| 0xBEEF |] in
  for _ = 1 to 120 do
    let n = 1 + Random.State.int rng 8 in
    let items =
      Array.init n (fun _ ->
          (float_of_int (Random.State.int rng 20), 1 + Random.State.int rng 9))
    in
    let cap = 1 + Random.State.int rng 25 in
    let suffix = Array.make (n + 1) 0.0 in
    for i = n - 1 downto 0 do
      suffix.(i) <- suffix.(i + 1) +. fst items.(i)
    done;
    let module Space = struct
      type state = { i : int; value : float; weight : int }

      let tick = Bnb.Tick.make ~site:"bnb.test" ()

      let branches st =
        if st.i = n then []
        else
          let v, w = items.(st.i) in
          let take =
            if st.weight + w <= cap then
              [ { i = st.i + 1; value = st.value +. v; weight = st.weight + w } ]
            else []
          in
          take @ [ { st with i = st.i + 1 } ]

      let solution st = if st.i = n then Some st.value else None
      let bound st = st.value +. suffix.(st.i)
    end in
    let module Search = Bnb.Make (Space) in
    let got =
      match Search.maximize { Space.i = 0; value = 0.0; weight = 0 } with
      | Some (v, _) -> v
      | None -> neg_infinity
    in
    check "knapsack optimum = brute force" true (got = knapsack_brute items cap)
  done

(* ---------- SAT: kernel-trail solver vs assignment sweep ---------- *)

let prop_sat_matches_brute =
  QCheck.Test.make ~name:"Sat (Bnb.Trail): solve = brute-force satisfiability"
    ~count:120
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Gen.cnf3 rng ~nvars:5 ~nclauses:10 in
      let brute =
        Seq.exists (fun a -> Cnf.holds f a) (Cnf.assignments f.Cnf.nvars)
      in
      match Sat.solve f with
      | Some a -> brute && Cnf.holds f a
      | None -> not brute)

(* ---------- MaxSAT: kernel B&B vs brute force ---------- *)

let prop_maxsat_matches_brute =
  QCheck.Test.make ~name:"Maxsat (Bnb.Make): solve = brute force" ~count:120
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mi = Gen.maxsat rng ~nvars:5 ~nclauses:8 ~max_weight:9 in
      let w, a = Maxsat.solve mi in
      w = Maxsat.brute_force mi && Maxsat.weight_of mi a = w)

(* ---------- Oracle: kernel Subset vs a naive reference enumerator ---------- *)

let random_inst seed =
  let rng = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rng 5 in
  let rows = List.init n (fun i -> [ i + 1; 1 + Random.State.int rng 9 ]) in
  let db =
    Relational.Database.of_relations
      [
        Relational.Relation.of_int_rows
          (Relational.Schema.make "R" [ "id"; "score" ])
          rows;
      ]
  in
  let compat =
    if Random.State.bool rng then Instance.No_constraint
    else
      Instance.Compat_fn
        ( "score-cap",
          fun p _ ->
            List.fold_left
              (fun acc t ->
                acc + Relational.Value.int_exn (Tuple.get t 1))
              0 (Package.to_list p)
            <= 14 )
  in
  Instance.make ~db ~select:(Qlang.Query.Identity "R") ~compat
    ~cost:Rating.card_or_infinite ~value:(Rating.sum_col ~nonneg:true 1)
    ~budget:(float_of_int (1 + Random.State.int rng 3))
    ()

(* Reference: every subset of Q(D) up to the size bound, by masks, sorted
   into the canonical DFS (prefix-lexicographic index) order independently
   of the kernel. *)
let reference_valid inst =
  let cands = Relational.Relation.to_array (Instance.candidates inst) in
  let n = Array.length cands in
  let max_size = Instance.max_package_size inst in
  let subsets = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let idxs = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
    if List.length idxs <= max_size then
      subsets := (idxs, List.fold_left (fun p i -> Package.add cands.(i) p) Package.empty idxs) :: !subsets
  done;
  let lex_le a b =
    let rec go = function
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: xs, y :: ys -> if x <> y then compare x y else go (xs, ys)
    in
    go (a, b)
  in
  !subsets
  |> List.filter (fun (_, p) ->
         Rating.eval inst.Instance.cost p <= inst.Instance.budget
         && Validity.compatible inst p)
  |> List.sort (fun (ia, _) (ib, _) -> lex_le ia ib)
  |> List.map snd

let prop_oracle_order_matches_reference =
  QCheck.Test.make
    ~name:"Exist_pack (Bnb.Subset): all_valid = reference order"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let inst = random_inst seed in
      let reference = reference_valid inst in
      let got = Exist_pack.all_valid (Exist_pack.ctx inst) in
      List.length got = List.length reference
      && List.for_all2 Package.equal got reference)

let prop_oracle_witness_matches_reference =
  QCheck.Test.make
    ~name:"Exist_pack (Bnb.Subset): search witness = first reference hit"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let inst = random_inst seed in
      let rng = Random.State.make [| seed lxor 0x5EED |] in
      let bound = float_of_int (Random.State.int rng 12) in
      let value = Rating.eval inst.Instance.value in
      let reference =
        List.find_opt (fun p -> value p >= bound) (reference_valid inst)
      in
      let got = Exist_pack.search (Exist_pack.ctx inst) ~bound () in
      match (got, reference) with
      | None, None -> true
      | Some g, Some r -> Package.equal g r
      | _ -> false)

let () =
  Alcotest.run "bnb"
    [
      ( "kernel",
        [
          Alcotest.test_case "trail marks and unwind order" `Quick
            test_trail_marks;
          Alcotest.test_case "trail unwind counter bumps once" `Quick
            test_trail_unwind_counter;
          Alcotest.test_case "incumbent: strict improvement, tie keeps first"
            `Quick test_incumbent;
          Alcotest.test_case "Make: knapsack differential" `Quick
            test_make_knapsack_diff;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_sat_matches_brute;
          QCheck_alcotest.to_alcotest prop_maxsat_matches_brute;
          QCheck_alcotest.to_alcotest prop_oracle_order_matches_reference;
          QCheck_alcotest.to_alcotest prop_oracle_witness_matches_reference;
        ] );
    ]
