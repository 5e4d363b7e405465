(* PaQL surface + PB solver tests: parser round-trips, the pseudo-Boolean
   branch-and-bound against brute force, and — the refactor's key
   differential — the PaQL route against the legacy package oracle on
   instances small enough for both. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module Paql = Qlang.Paql
module Pb = Solvers.Pb
module Paql_compile = Core.Paql_compile
module Package = Core.Package
module Mbp = Core.Mbp
module Budget = Robust.Budget

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-6))

(* ---------- parser ---------- *)

let test_parse_basic () =
  let q =
    Paql.parse
      "SELECT PACKAGE(P) FROM R WHERE price <= 10 AND rating >= 3 SUCH THAT \
       SUM(price) <= 50 AND COUNT(*) <= 4 MAXIMIZE SUM(rating)"
  in
  check_str "package" "P" q.Paql.package;
  check_str "relation" "R" q.Paql.relation;
  check_int "where preds" 2 (List.length q.Paql.where);
  check_int "globals" 2 (List.length q.Paql.such_that);
  (match q.Paql.objective with
  | Paql.Maximize (Paql.Sum "rating") -> ()
  | _ -> Alcotest.fail "objective mismatch");
  match q.Paql.such_that with
  | [ g1; g2 ] ->
      check "sum global" true (g1.Paql.agg = Paql.Sum "price");
      check "count global" true (g2.Paql.agg = Paql.Count && g2.Paql.gcmp = Paql.Le)
  | _ -> Alcotest.fail "such_that shape"

let test_parse_case_and_min_max () =
  let q =
    Paql.parse
      "select package(q) from items such that min(weight) >= 2 and \
       max(weight) <= 9 minimize count(*)"
  in
  check_str "relation" "items" q.Paql.relation;
  (match q.Paql.objective with
  | Paql.Minimize Paql.Count -> ()
  | _ -> Alcotest.fail "objective mismatch");
  match q.Paql.such_that with
  | [ { Paql.agg = Paql.Min "weight"; gcmp = Paql.Ge; gvalue = 2. };
      { Paql.agg = Paql.Max "weight"; gcmp = Paql.Le; gvalue = 9. } ] ->
      ()
  | _ -> Alcotest.fail "such_that shape"

let test_parse_roundtrip () =
  let sources =
    [
      "SELECT PACKAGE(P) FROM R";
      "SELECT PACKAGE(P) FROM R WHERE a >= 1";
      "SELECT PACKAGE(P) FROM R SUCH THAT COUNT(*) = 3";
      "SELECT PACKAGE(P) FROM R WHERE a <= 5 AND b >= 0 SUCH THAT \
       SUM(a) <= 9.5 AND MIN(b) >= 1 MAXIMIZE SUM(b)";
      "SELECT PACKAGE(P) FROM R SUCH THAT MAX(a) <= 100 MINIMIZE SUM(a)";
    ]
  in
  List.iter
    (fun src ->
      let q = Paql.parse src in
      let q' = Paql.parse (Paql.to_string q) in
      check ("round-trip: " ^ src) true (q = q'))
    sources

let test_parse_errors () =
  let bad =
    [
      "SELECT TUPLE(P) FROM R";
      "SELECT PACKAGE(P)";
      "SELECT PACKAGE(P) FROM R WHERE a < 1";
      "SELECT PACKAGE(P) FROM R SUCH THAT SUM() <= 1";
      "SELECT PACKAGE(P) FROM R MAXIMIZE";
      "SELECT PACKAGE(P) FROM R trailing";
    ]
  in
  List.iter
    (fun src ->
      match Paql.parse src with
      | _ -> Alcotest.failf "accepted: %s" src
      | exception Paql.Error _ -> ())
    bad

(* ---------- PB solver vs brute force ---------- *)

let brute_pb (p : Pb.program) =
  let n = p.Pb.nvars in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> mask land (1 lsl j) <> 0) in
    if Pb.feasible p x then begin
      let v = Pb.objective_value p x in
      match !best with
      | Some (bv, _) when bv >= v -> ()
      | _ -> best := Some (v, x)
    end
  done;
  !best

(* Every coefficient, right-hand side and objective is a random integer
   divided by [denominator]: [1.0] gives whole numbers, [10.0] tenths (each
   number [k /. 10.], as a decimal literal would read), which exercise the
   solver's 1e-9 tolerances. *)
let random_pb ?(denominator = 1.0) ?(max_vars = 10) rng =
  let num k = float_of_int k /. denominator in
  let n = 2 + Random.State.int rng (max_vars - 1) in
  let nc = 1 + Random.State.int rng 4 in
  let coeffs () = Array.init n (fun _ -> num (Random.State.int rng 13 - 3)) in
  let constr () =
    let cmp =
      match Random.State.int rng 4 with
      | 0 -> Pb.Ge
      | 1 -> Pb.Eq
      | _ -> Pb.Le
    in
    { Pb.coeffs = coeffs (); cmp; rhs = num (Random.State.int rng 25) }
  in
  {
    Pb.nvars = n;
    objective = Array.init n (fun _ -> num (Random.State.int rng 19 - 4));
    constraints = List.init nc (fun _ -> constr ());
  }

(* Each column of [p] repeated 1–3 times adjacently: runs of identical
   variables, the shape of a sketch program's partition copies. *)
let with_runs rng (p : Pb.program) =
  let column =
    Array.concat
      (List.init p.Pb.nvars (fun j -> Array.make (1 + Random.State.int rng 3) j))
  in
  let spread a = Array.map (fun j -> a.(j)) column in
  {
    Pb.nvars = Array.length column;
    objective = spread p.Pb.objective;
    constraints =
      List.map (fun r -> { r with Pb.coeffs = spread r.Pb.coeffs }) p.Pb.constraints;
  }

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* The solver's optimum is brute force's, with a feasible witness, and
   the root dual bound is at or above it, under nonnegative multipliers. *)
let matches_brute p =
  let dual = Pb.dual_bound p in
  Array.for_all (fun l -> l >= 0.0) dual.Pb.multipliers
  &&
  match (Pb.solve p, brute_pb p) with
  | None, None -> true
  | Some (v, x), Some (bv, _) ->
      Float.abs (v -. bv) <= 1e-6 && Pb.feasible p x
      && Float.abs (Pb.objective_value p x -. v) <= 1e-6
      && bv <= dual.Pb.bound
  | Some _, None | None, Some _ -> false

let prop_pb_matches_brute =
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"PB: branch-and-bound = brute force" seed_gen (fun seed ->
      matches_brute (random_pb (Random.State.make [| seed |])))

let prop_pb_matches_brute_tenths =
  QCheck.Test.make ~count:1000 ~long_factor:20
    ~name:"PB: branch-and-bound = brute force, coefficients in tenths"
    seed_gen (fun seed ->
      matches_brute (random_pb ~denominator:10.0 (Random.State.make [| seed |])))

let prop_pb_matches_brute_runs =
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"PB: runs of identical columns, branch-and-bound = brute force"
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let denominator = if Random.State.bool rng then 1.0 else 10.0 in
      matches_brute (with_runs rng (random_pb ~denominator ~max_vars:5 rng)))

(* A budget row full up to rounding: 0.1 + 0.2 > 0.3 by 5.6e-17, so after
   taking b and c the remaining capacity is slightly negative.  The bound
   must still count the zero-cost z; the optimum is b + c + z = 3. *)
let test_pb_rounding_full_budget_row () =
  let p =
    {
      Pb.nvars = 4;
      objective = [| 0.5; 1.0; 1.0; 1.0 |];
      constraints =
        [
          { Pb.coeffs = [| 0.0; 0.1; 0.2; 0.0 |]; cmp = Pb.Le; rhs = 0.3 };
          { Pb.coeffs = [| 1.0; 0.0; 0.0; 1.0 |]; cmp = Pb.Le; rhs = 1.0 };
        ];
    }
  in
  (match brute_pb p with
  | Some (v, _) -> checkf "brute force" 3.0 v
  | None -> Alcotest.fail "brute force: infeasible");
  match Pb.solve p with
  | Some (v, x) ->
      checkf "optimum" 3.0 v;
      check "witness feasible" true (Pb.feasible p x);
      check "witness takes z" true x.(3)
  | None -> Alcotest.fail "Pb.solve: infeasible"

(* Numbers in thirds of a million: the best selection beats the next by
   one ulp (0x1.087c555555556p+24 against ...555p+24).  At magnitudes
   like these, rounding in the Lagrangian bound's sum can land below the
   better value, and only the bound's relative slack keeps that
   selection from being cut. *)
let test_pb_ulp_near_tie () =
  let third k = float_of_int k *. 1e6 /. 3.0 in
  let p =
    {
      Pb.nvars = 9;
      objective = Array.map third [| -1; 8; -3; 10; 9; 10; 13; 8; 12 |];
      constraints =
        [
          {
            Pb.coeffs = Array.map third [| -2; -1; 9; -2; 4; 8; -2; 9; -2 |];
            cmp = Pb.Eq;
            rhs = third 7;
          };
        ];
    }
  in
  match (Pb.solve p, brute_pb p) with
  | Some (v, x), Some (bv, bx) ->
      check "the brute-force optimum, to the ulp" true (v = bv);
      check "the brute-force selection" true (x = bx)
  | _ -> Alcotest.fail "Pb.solve or brute force: infeasible"

(* Every number is k·scale plus m/10, at scale 1e8 or 1e9: sums of such
   numbers taken in different orders round apart by more than the
   solver's absolute 1e-9 tolerance.  Half the right-hand sides are the
   row sum of a random selection, so that [Eq] rows can be met. *)
let random_pb_large rng =
  let scale = if Random.State.bool rng then 1e8 else 1e9 in
  let num () =
    (float_of_int (Random.State.int rng 13 - 3) *. scale)
    +. (float_of_int (Random.State.int rng 10) /. 10.0)
  in
  let n = 2 + Random.State.int rng 8 in
  let constr () =
    let cmp =
      match Random.State.int rng 4 with
      | 0 -> Pb.Ge
      | 1 -> Pb.Eq
      | _ -> Pb.Le
    in
    let coeffs = Array.init n (fun _ -> num ()) in
    let rhs =
      if Random.State.bool rng then
        Array.fold_left
          (fun acc c -> if Random.State.bool rng then acc +. c else acc)
          0.0 coeffs
      else num ()
    in
    { Pb.coeffs; cmp; rhs }
  in
  {
    Pb.nvars = n;
    objective = Array.init n (fun _ -> num ());
    constraints = List.init (1 + Random.State.int rng 3) (fun _ -> constr ());
  }

(* Brute force's optimum to the ulp: the leaf and [Pb.objective_value]
   both sum the objective in index order. *)
let matches_brute_to_the_ulp p =
  match (Pb.solve p, brute_pb p) with
  | None, None -> true
  | Some (v, x), Some (bv, _) ->
      v = bv && Pb.feasible p x && Pb.objective_value p x = v
  | Some _, None | None, Some _ -> false

let prop_pb_matches_brute_large =
  QCheck.Test.make ~count:2000 ~long_factor:20
    ~name:"PB: 1e8-1e10 magnitudes = brute force" seed_gen (fun seed ->
      matches_brute_to_the_ulp (random_pb_large (Random.State.make [| seed |])))

(* Two programs the search without rounding slack got wrong.  In the
   first, the feasibility test's suffix sum, taken from the end, cuts the
   only feasible selection (all three variables), so the search reported
   the program infeasible.  In the second, the knapsack bound's capacity
   rounds below the last variable's coefficient and cuts the optimum,
   15000000001.2, so the search returned 9000000000.7. *)
let test_pb_large_magnitudes () =
  let programs =
    [
      {
        Pb.nvars = 3;
        objective = [| -299999999.19999999; -199999999.59999999; 100000000.8 |];
        constraints =
          [
            {
              Pb.coeffs = [| 200000000.69999999; 500000000.5; 800000000.60000002 |];
              cmp = Pb.Ge;
              rhs = 1500000001.8000002;
            };
          ];
      };
      {
        Pb.nvars = 3;
        objective = [| 6000000000.5; 5000000000.6000004; 4000000000.0999999 |];
        constraints =
          [
            {
              Pb.coeffs = [| 8000000000.3000002; 0.80000000000000004; -3000000000. |];
              cmp = Pb.Le;
              rhs = 8000000001.1000004;
            };
            {
              Pb.coeffs = [| 4000000000.5999999; -1999999999.7; -1999999999.5 |];
              cmp = Pb.Le;
              rhs = 1.3999998569488525;
            };
          ];
      };
    ]
  in
  List.iteri
    (fun i p ->
      check (Printf.sprintf "brute force finds a selection, program %d" i) true
        (brute_pb p <> None);
      check (Printf.sprintf "brute-force optimum, program %d" i) true
        (matches_brute_to_the_ulp p))
    programs

(* The search before the linked walk, kept as the reference for it: the
   same [Bnb.Make] space over immutable states, whose greedy bound scans
   the whole ratio order from the start at every node, skipping decided
   variables (with the same capacity clamp, and the same rounding slack
   in the feasibility test and in the crude and knapsack bounds).
   [~pruned:false] is the search before the Lagrangian bound and the run
   skip.  [~pruned:true] adds both: the Lagrangian node bound under the library's root
   multipliers (read through [Pb.dual_bound]), computed with the same
   float operations in the same order, and the skip child's jump past a
   run of identical columns.  With [~pruned:true] the library must visit
   the same nodes in the same order, so every budgeted run agrees with
   it. *)
module Pb_reference = struct
  let eps = 1e-9

  type row = { c : float array; b : float }

  let rows_of (p : Pb.program) =
    List.concat_map
      (fun { Pb.coeffs; cmp; rhs } ->
        let neg () = { c = Array.map (fun v -> -.v) coeffs; b = -.rhs } in
        match cmp with
        | Pb.Le -> [ { c = coeffs; b = rhs } ]
        | Pb.Ge -> [ neg () ]
        | Pb.Eq -> [ { c = coeffs; b = rhs }; neg () ])
      p.Pb.constraints

  let solve ~pruned ~on_improve (p : Pb.program) =
    let n = p.Pb.nvars in
    let rows = Array.of_list (rows_of p) in
    let nrows = Array.length rows in
    let lambda =
      if pruned then (Pb.dual_bound p).Pb.multipliers
      else Array.make nrows 0.0
    in
    let suffix_red =
      let red j =
        let s = ref p.Pb.objective.(j) in
        for r = 0 to nrows - 1 do
          s := !s -. (lambda.(r) *. rows.(r).c.(j))
        done;
        !s
      in
      let s = Array.make (n + 1) 0.0 in
      for j = n - 1 downto 0 do
        s.(j) <- s.(j + 1) +. Float.max (red j) 0.0
      done;
      s
    in
    let lagrangian_bound obj i lhs =
      let acc = ref (obj +. suffix_red.(i))
      and mag = ref (Float.abs obj +. suffix_red.(i)) in
      for r = 0 to nrows - 1 do
        if lambda.(r) > 0.0 then begin
          let v = lambda.(r) *. (rows.(r).b +. eps -. lhs.(r)) in
          acc := !acc +. v;
          mag := !mag +. Float.abs v
        end
      done;
      !acc +. (1e-9 *. (1.0 +. !mag))
    in
    let next_skip i =
      let same j k =
        p.Pb.objective.(j) = p.Pb.objective.(k)
        && Array.for_all (fun { c; _ } -> c.(j) = c.(k)) rows
      in
      let k = ref (i + 1) in
      if pruned then while !k < n && same i !k do incr k done;
      !k
    in
    let suffix_min =
      Array.map
        (fun { c; _ } ->
          let s = Array.make (n + 1) 0.0 in
          for j = n - 1 downto 0 do
            s.(j) <- s.(j + 1) +. Float.min c.(j) 0.0
          done;
          s)
        rows
    in
    (* The rounding slack of the feasibility test and of the crude and
       knapsack bounds: relative 1e-9 over the magnitude of the terms,
       none for integer data summing below 2^53. *)
    let slack_for values =
      let total = Array.fold_left (fun a v -> a +. Float.abs v) 0.0 values in
      if Array.for_all Float.is_integer values && total < 0x1p53 then 0.0
      else 1e-9
    in
    let slack rel acc mag = acc +. (rel *. (1.0 +. mag)) in
    let row_rel = Array.map (fun { c; b } -> slack_for (Array.append c [| b |])) rows in
    let obj_rel = slack_for p.Pb.objective in
    let suffix_abs =
      Array.map
        (fun { c; _ } ->
          let s = Array.make (n + 1) 0.0 in
          for j = n - 1 downto 0 do
            s.(j) <- s.(j + 1) +. Float.abs c.(j)
          done;
          s)
        rows
    in
    let suffix_pos =
      let s = Array.make (n + 1) 0.0 in
      for j = n - 1 downto 0 do
        s.(j) <- s.(j + 1) +. Float.max p.Pb.objective.(j) 0.0
      done;
      s
    in
    let budget_row_index =
      let rec find k =
        if k = nrows then -1
        else if Array.for_all (fun v -> v >= 0.0) rows.(k).c then k
        else find (k + 1)
      in
      find 0
    in
    let by_ratio =
      if budget_row_index < 0 then [||]
      else
        let c = rows.(budget_row_index).c in
        let idx =
          Array.of_seq
            (Seq.filter (fun j -> p.Pb.objective.(j) > 0.0) (Seq.init n Fun.id))
        in
        Array.sort
          (fun a b ->
            let r j = p.Pb.objective.(j) /. Float.max c.(j) eps in
            compare (r b) (r a))
          idx;
        idx
    in
    let greedy_bound i capacity =
      let c = rows.(budget_row_index).c in
      let cap = ref (Float.max capacity 0.0) and acc = ref 0.0 in
      (try
         Array.iter
           (fun j ->
             if j >= i then
               if c.(j) <= !cap then begin
                 acc := !acc +. p.Pb.objective.(j);
                 cap := !cap -. c.(j)
               end
               else begin
                 if c.(j) > 0.0 then
                   acc := !acc +. (p.Pb.objective.(j) *. !cap /. c.(j));
                 raise Exit
               end)
           by_ratio
       with Exit -> ());
      !acc
    in
    let module Space = struct
      type state = { i : int; chosen : int list; obj : float; lhs : float array }

      let tick = Solvers.Bnb.Tick.make ~site:"pb.node" ()

      let viable st =
        let ok = ref true in
        for r = 0 to nrows - 1 do
          let lhs = st.lhs.(r) in
          if
            lhs +. suffix_min.(r).(st.i)
            > slack row_rel.(r) (rows.(r).b +. eps)
                (Float.abs lhs +. suffix_abs.(r).(st.i))
          then ok := false
        done;
        !ok

      let branches st =
        if st.i = n then []
        else
          let lhs = Array.copy st.lhs in
          for r = 0 to nrows - 1 do
            lhs.(r) <- lhs.(r) +. rows.(r).c.(st.i)
          done;
          let take =
            {
              i = st.i + 1;
              chosen = st.i :: st.chosen;
              obj = st.obj +. p.Pb.objective.(st.i);
              lhs;
            }
          in
          List.filter viable [ take; { st with i = next_skip st.i } ]

      let solution st =
        if st.i < n then None
        else
          let ok = ref true in
          for r = 0 to nrows - 1 do
            if st.lhs.(r) > rows.(r).b +. eps then ok := false
          done;
          if !ok then Some st.obj else None

      let bound st =
        let mag = Float.abs st.obj +. suffix_pos.(st.i) in
        let crude =
          let c = slack obj_rel (st.obj +. suffix_pos.(st.i)) mag in
          if pruned then Float.min c (lagrangian_bound st.obj st.i st.lhs) else c
        in
        if budget_row_index < 0 then crude
        else
          let r = budget_row_index in
          let lhs = st.lhs.(r) in
          let capacity =
            if row_rel.(r) = 0.0 then rows.(r).b -. lhs
            else
              slack row_rel.(r) (rows.(r).b +. eps -. lhs)
                (Float.abs lhs +. suffix_abs.(r).(st.i))
          in
          Float.min crude
            (slack obj_rel (st.obj +. greedy_bound st.i capacity) mag)
    end in
    let module Search = Solvers.Bnb.Make (Space) in
    let to_selection chosen =
      let x = Array.make n false in
      List.iter (fun j -> x.(j) <- true) chosen;
      x
    in
    let incumbent =
      Solvers.Bnb.Incumbent.create
        ~on_improve:(fun v st -> on_improve v (to_selection st.Space.chosen))
        ()
    in
    let root =
      { Space.i = 0; chosen = []; obj = 0.0; lhs = Array.make nrows 0.0 }
    in
    let result =
      if n = 0 || Space.viable root then Search.maximize ~incumbent root
      else None
    in
    Option.map (fun (v, st) -> (v, to_selection st.Space.chosen)) result

  let solve_budgeted ~pruned ~budget p =
    let best = ref None in
    Budget.run ~budget
      ~partial:(fun _ -> !best)
      (fun () -> solve ~pruned ~on_improve:(fun v x -> best := Some (v, x)) p)
end

(* Same outcome kind, value and selection, and the same number of budget
   ticks (nodes visited) at every fuel from 1 to 60. *)
let prop_pb_same_search =
  QCheck.Test.make ~count:100 ~long_factor:20
    ~name:"PB: linked walk = full-scan reference, fuel 1..60" seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let denominator = if Random.State.bool rng then 1.0 else 10.0 in
      let p = random_pb ~denominator ~max_vars:16 rng in
      let run solve fuel =
        let budget = Budget.make ~fuel () in
        let outcome = solve ~budget p in
        (outcome, Budget.ticks budget)
      in
      let agree fuel =
        let lib, lib_ticks =
          run (fun ~budget p -> Pb.solve_budgeted ~budget p) fuel
        and ref_, ref_ticks =
          run (Pb_reference.solve_budgeted ~pruned:true) fuel
        in
        lib_ticks = ref_ticks
        &&
        match (lib, ref_) with
        | Budget.Exact a, Budget.Exact b -> a = b
        | Budget.Partial a, Budget.Partial b ->
            a.best_so_far = b.best_so_far && a.reason = b.reason
        | Budget.Exact _, Budget.Partial _ | Budget.Partial _, Budget.Exact _
          ->
            false
      in
      List.for_all agree (List.init 60 (fun k -> k + 1)))

(* The Lagrangian bound and the run skip only cut subtrees without a
   better answer, and the take-first order reaches the prefix form of an
   optimum first: unbudgeted, the library returns the same value and
   selection as the search without them, in no more nodes. *)
let prop_pb_same_answer_as_parent =
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"PB: same exact answer as without the new pruning, no more ticks"
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let denominator = if Random.State.bool rng then 1.0 else 10.0 in
      let p =
        if Random.State.bool rng then random_pb ~denominator ~max_vars:14 rng
        else with_runs rng (random_pb ~denominator ~max_vars:7 rng)
      in
      let run solve =
        let budget = Budget.make () in
        let outcome = solve ~budget p in
        (outcome, Budget.ticks budget)
      in
      match
        ( run (fun ~budget p -> Pb.solve_budgeted ~budget p),
          run (Pb_reference.solve_budgeted ~pruned:false) )
      with
      | (Budget.Exact a, ticks), (Budget.Exact b, parent_ticks) ->
          a = b && ticks <= parent_ticks
      | _ -> false)

(* A sketch-shaped program: 23 partitions, each as 8 identical copies of
   its representative, under COUNT ≤ 6 and a cost budget.  Without the
   new pruning the search tries every subset of equivalent copies and
   runs out of the sketch's 150,000-node fuel; with it, it finishes. *)
let test_pb_sketch_shaped_exact () =
  let parts = 23 and copies = 8 in
  let value p = float_of_int (10 + ((p * 37) mod 53))
  and cost p = float_of_int (5 + ((p * 29) mod 31)) in
  let per_var f = Array.init (parts * copies) (fun v -> f (v / copies)) in
  let p =
    {
      Pb.nvars = parts * copies;
      objective = per_var value;
      constraints =
        [
          { Pb.coeffs = per_var (fun _ -> 1.0); cmp = Pb.Le; rhs = 6.0 };
          { Pb.coeffs = per_var cost; cmp = Pb.Le; rhs = 60.0 };
        ];
    }
  in
  let run solve =
    let budget = Budget.make ~fuel:150_000 () in
    solve ~budget p
  in
  (match run (Pb_reference.solve_budgeted ~pruned:false) with
  | Budget.Partial _ -> ()
  | Budget.Exact _ -> Alcotest.fail "the parent search finished");
  match run (fun ~budget p -> Pb.solve_budgeted ~budget p) with
  | Budget.Exact (Some (v, x)) ->
      check "witness feasible" true (Pb.feasible p x);
      checkf "witness value" v (Pb.objective_value p x);
      check "dual bound at or above the optimum" true
        (v <= (Pb.dual_bound p).Pb.bound)
  | Budget.Exact None -> Alcotest.fail "Pb: infeasible"
  | Budget.Partial _ -> Alcotest.fail "Pb: fuel ran out"

let prop_pb_budgeted_sound =
  QCheck.Test.make ~count:100 ~long_factor:20
    ~name:"PB: budgeted partial is feasible, ≤ optimum"
    (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_range 5 400)))
    (fun (seed, fuel) ->
      let rng = Random.State.make [| seed |] in
      let p = random_pb rng in
      match Pb.solve_budgeted ~budget:(Budget.make ~fuel ()) p with
      | Budget.Exact r -> r = Pb.solve p
      | Budget.Partial { best_so_far = None; _ } -> true
      | Budget.Partial { best_so_far = Some (v, x); _ } -> (
          Pb.feasible p x
          && Float.abs (Pb.objective_value p x -. v) <= 1e-6
          &&
          match Pb.solve p with
          | Some (opt, _) -> v <= opt +. 1e-6
          | None -> false))

(* ---------- compilation semantics ---------- *)

let db_of rows =
  Database.of_relations
    [ Relation.of_int_rows (Schema.make "R" [ "id"; "cost"; "val" ]) rows ]

let compile_str db src = Result.get_ok (Paql_compile.parse_and_compile db src)

let test_compile_errors () =
  let db = db_of [ [ 1; 2; 3 ] ] in
  let expect_err src =
    match Paql_compile.parse_and_compile db src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "compiled: %s" src
  in
  expect_err "SELECT PACKAGE(P) FROM missing";
  expect_err "SELECT PACKAGE(P) FROM R WHERE nope <= 1";
  expect_err "SELECT PACKAGE(P) FROM R SUCH THAT SUM(nope) <= 1";
  expect_err "SELECT PACKAGE(P) FROM R MAXIMIZE MIN(cost)"

let test_where_filters_candidates () =
  let db = db_of [ [ 1; 5; 1 ]; [ 2; 20; 9 ]; [ 3; 7; 2 ] ] in
  let c = compile_str db "SELECT PACKAGE(P) FROM R WHERE cost <= 10" in
  check_int "two candidates survive" 2
    (Array.length c.Paql_compile.linear.cands)

let test_min_max_empty_conventions () =
  let db = db_of [ [ 1; 5; 1 ]; [ 2; 8; 2 ] ] in
  (* MIN(∅) = +∞: the empty package satisfies MIN ≥ c *)
  let c = compile_str db "SELECT PACKAGE(P) FROM R SUCH THAT MIN(cost) >= 6" in
  check "empty satisfies MIN >= 6" true (Paql_compile.satisfies c Package.empty);
  (* MAX(∅) = −∞: the empty package satisfies MAX ≤ c *)
  let c = compile_str db "SELECT PACKAGE(P) FROM R SUCH THAT MAX(cost) <= 6" in
  check "empty satisfies MAX <= 6" true (Paql_compile.satisfies c Package.empty);
  (* ... but not MIN ≤ c (some tuple must witness it) *)
  let c = compile_str db "SELECT PACKAGE(P) FROM R SUCH THAT MIN(cost) <= 6" in
  check "empty fails MIN <= 6" false (Paql_compile.satisfies c Package.empty);
  match Paql_compile.solve_exact c with
  | Some a -> check "witnessed MIN <= 6" true (Paql_compile.satisfies c a.Paql_compile.package)
  | None -> Alcotest.fail "solvable query returned None"

let test_solve_exact_knapsack () =
  let db = db_of [ [ 1; 4; 9 ]; [ 2; 5; 10 ]; [ 3; 6; 2 ]; [ 4; 3; 5 ] ] in
  let c =
    compile_str db
      "SELECT PACKAGE(P) FROM R SUCH THAT SUM(cost) <= 9 MAXIMIZE SUM(val)"
  in
  match Paql_compile.solve_exact c with
  | Some a ->
      (* best: tuples 1 and 2 — cost 9, value 19 *)
      checkf "optimum" 19.0 a.Paql_compile.objective;
      check "satisfies" true (Paql_compile.satisfies c a.Paql_compile.package)
  | None -> Alcotest.fail "expected an answer"

let test_solve_exact_minimize () =
  let db = db_of [ [ 1; 4; 9 ]; [ 2; 5; 10 ]; [ 3; 6; 2 ] ] in
  let c =
    compile_str db
      "SELECT PACKAGE(P) FROM R SUCH THAT SUM(val) >= 11 MINIMIZE SUM(cost)"
  in
  match Paql_compile.solve_exact c with
  | Some a ->
      (* value ≥ 11 forces at least two tuples; cheapest is {1,2}: cost 9 *)
      checkf "min cost" 9.0 a.Paql_compile.objective;
      check "satisfies" true (Paql_compile.satisfies c a.Paql_compile.package)
  | None -> Alcotest.fail "expected an answer"

(* ---------- differential: PaQL route vs legacy oracle (property b) ---------- *)

(* Reference semantics: enumerate every subset of the candidates and check
   the surface query directly — independent of both engines under test. *)
let brute_paql (c : Paql_compile.t) =
  let cands = c.Paql_compile.linear.cands in
  let n = Array.length cands in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> mask land (1 lsl j) <> 0) in
    let pkg = Paql_compile.package_of_selection c x in
    if Paql_compile.satisfies c pkg then begin
      let v =
        Array.to_list x
        |> List.mapi (fun j taken ->
               if taken then c.Paql_compile.linear.objective.(j) else 0.0)
        |> List.fold_left ( +. ) 0.0
      in
      match !best with
      | Some bv when bv >= v -> ()
      | _ -> best := Some v
    end
  done;
  !best

let random_query rng =
  let budget = 6 + Random.State.int rng 14 in
  let cap = 1 + Random.State.int rng 4 in
  let clauses =
    List.filteri
      (fun i _ -> i = 0 || Random.State.bool rng)
      [
        Printf.sprintf "SUM(cost) <= %d" budget;
        Printf.sprintf "COUNT(*) <= %d" cap;
        "MIN(val) >= 1";
        "MAX(cost) <= 9";
      ]
  in
  "SELECT PACKAGE(P) FROM R SUCH THAT "
  ^ String.concat " AND " clauses
  ^ " MAXIMIZE SUM(val)"

let random_small_db rng =
  let n = 3 + Random.State.int rng 8 in
  db_of
    (List.init n (fun i ->
         [ i; 1 + Random.State.int rng 9; Random.State.int rng 8 ]))

let prop_paql_matches_brute =
  QCheck.Test.make ~count:150 ~name:"PaQL: exact solve = subset brute force"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c = compile_str (random_small_db rng) (random_query rng) in
      let engine =
        Option.map (fun a -> a.Paql_compile.objective) (Paql_compile.solve_exact c)
      in
      (* minimize-negation is not in play: queries above all maximize *)
      match (engine, brute_paql c) with
      | None, None -> true
      | Some v, Some bv -> Float.abs (v -. bv) <= 1e-6
      | Some _, None | None, Some _ -> false)

(* The refactor's agreement proof: on the same query, the PB route and the
   legacy branch-and-bound package oracle (via MBP over the desugared
   instance, whose value rating is the objective) report the same optimum. *)
let prop_paql_matches_legacy_oracle =
  QCheck.Test.make ~count:100
    ~name:"PaQL: PB route = legacy package oracle (MBP k=1)"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c = compile_str (random_small_db rng) (random_query rng) in
      let pb = Paql_compile.solve_exact c in
      let oracle = Mbp.max_bound c.Paql_compile.inst ~k:1 in
      match (pb, oracle) with
      | None, None -> true
      | Some a, Some v -> Float.abs (a.Paql_compile.objective -. v) <= 1e-6
      | Some _, None | None, Some _ -> false)

let prop_paql_budgeted_sound =
  QCheck.Test.make ~count:80 ~name:"PaQL: budgeted partial satisfies the query"
    (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_range 3 200)))
    (fun (seed, fuel) ->
      let rng = Random.State.make [| seed |] in
      let c = compile_str (random_small_db rng) (random_query rng) in
      match Paql_compile.solve_budgeted ~budget:(Budget.make ~fuel ()) c with
      | Budget.Exact _ -> true
      | Budget.Partial { best_so_far = None; _ } -> true
      | Budget.Partial { best_so_far = Some a; _ } ->
          Paql_compile.satisfies c a.Paql_compile.package)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "paql"
    [
      ( "parser",
        [
          Alcotest.test_case "basic query" `Quick test_parse_basic;
          Alcotest.test_case "case + min/max" `Quick test_parse_case_and_min_max;
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        ] );
      ( "pb",
        Alcotest.test_case "rounding-full budget row" `Quick
          test_pb_rounding_full_budget_row
        :: Alcotest.test_case "sketch-shaped program finishes" `Quick
             test_pb_sketch_shaped_exact
        :: Alcotest.test_case "near-tie one ulp apart" `Quick
             test_pb_ulp_near_tie
        :: Alcotest.test_case "magnitudes 1e8 and 1e9" `Quick
             test_pb_large_magnitudes
        :: qsuite
             [
               prop_pb_matches_brute;
               prop_pb_matches_brute_tenths;
               prop_pb_matches_brute_large;
               prop_pb_matches_brute_runs;
               prop_pb_same_search;
               prop_pb_same_answer_as_parent;
               prop_pb_budgeted_sound;
             ] );
      ( "compile",
        [
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "WHERE filters" `Quick test_where_filters_candidates;
          Alcotest.test_case "MIN/MAX on empty" `Quick test_min_max_empty_conventions;
          Alcotest.test_case "knapsack optimum" `Quick test_solve_exact_knapsack;
          Alcotest.test_case "minimize optimum" `Quick test_solve_exact_minimize;
        ] );
      ( "differential",
        qsuite
          [
            prop_paql_matches_brute;
            prop_paql_matches_legacy_oracle;
            prop_paql_budgeted_sound;
          ] );
    ]
