let c_solves = Observe.counter "pb.solves"
let c_nodes = Observe.counter "pb.nodes"
let t_solve = Observe.timer "pb.solve"

let tick = Bnb.Tick.make ~counter:c_nodes ~site:"pb.node" ()

let eps = 1e-9

type cmp = Le | Ge | Eq

type constr = {
  coeffs : float array;
  cmp : cmp;
  rhs : float;
}

type program = {
  nvars : int;
  objective : float array;
  constraints : constr list;
}

(* Internal form: every row as [Σ c_j·x_j ≤ rhs] (a Ge flips signs, an Eq
   becomes two rows). *)
type row = { c : float array; b : float }

let rows_of program =
  List.concat_map
    (fun { coeffs; cmp; rhs } ->
      let neg () = { c = Array.map (fun v -> -.v) coeffs; b = -.rhs } in
      match cmp with
      | Le -> [ { c = coeffs; b = rhs } ]
      | Ge -> [ neg () ]
      | Eq -> [ { c = coeffs; b = rhs }; neg () ])
    program.constraints

let check_program p =
  if p.nvars < 0 then invalid_arg "Pb: negative nvars";
  if Array.length p.objective <> p.nvars then
    invalid_arg "Pb: objective length differs from nvars";
  List.iter
    (fun { coeffs; _ } ->
      if Array.length coeffs <> p.nvars then
        invalid_arg "Pb: constraint length differs from nvars")
    p.constraints

let holds { cmp; rhs; _ } v =
  match cmp with
  | Le -> v <= rhs +. eps
  | Ge -> v >= rhs -. eps
  | Eq -> Float.abs (v -. rhs) <= eps

let feasible p x =
  check_program p;
  let lhs c =
    let s = ref 0.0 in
    Array.iteri (fun j cj -> if x.(j) then s := !s +. cj) c;
    !s
  in
  List.for_all (fun row -> holds row (lhs row.coeffs)) p.constraints

let objective_value p x =
  let s = ref 0.0 in
  Array.iteri (fun j oj -> if x.(j) then s := !s +. oj) p.objective;
  !s

(* The Lagrangian dual of the LP relaxation over the internal rows, each
   loosened by the tolerance [eps] the search accepts a row with:
     L(λ) = Σ_r λ_r·(b_r + eps) + Σ_j max(0, obj_j − Σ_r λ_r·c_rj),
   an upper bound on the optimum for every λ ≥ 0.  Coordinate descent
   from λ = 0 (where L is the crude bound): each step minimises L exactly
   in one λ_r.  With the others fixed, L is convex and piecewise linear
   in t = λ_r, with slope (b_r + eps) − Σ c_rj over the variables whose
   term is positive; the term of variable j switches at t = d_j / c_rj
   (d_j its reduced cost without row r), and the slope grows by |c_rj|
   there.  Walking the positive breakpoints in increasing order finds the
   first point where the slope turns nonnegative: O(n log n) a step. *)
type dual = { bound : float; multipliers : float array }

let max_sweeps = 20

(* Reduced costs obj_j − Σ_r λ_r·c_rj, each summed in row order. *)
let reduced_costs objective rows lambda =
  Array.mapi
    (fun j o ->
      let s = ref o in
      Array.iteri (fun r { c; _ } -> s := !s -. (lambda.(r) *. c.(j))) rows;
      !s)
    objective

(* L(λ) and the total magnitude of its terms. *)
let dual_value rows lambda red =
  let s = ref 0.0 and mag = ref 0.0 in
  Array.iteri
    (fun r { b; _ } ->
      let v = lambda.(r) *. (b +. eps) in
      s := !s +. v;
      mag := !mag +. Float.abs v)
    rows;
  Array.iter
    (fun v ->
      let v = Float.max v 0.0 in
      s := !s +. v;
      mag := !mag +. v)
    red;
  (!s, !mag)

(* A bound [acc] summed from terms of total magnitude [mag], raised by a
   relative slack so that rounding in the sum never cuts a strictly
   better completion. *)
let slack rel acc mag = acc +. (rel *. (1.0 +. mag))
let with_slack = slack 1e-9

(* The relative slack a search comparison over [values] needs: none when
   they are integers whose magnitudes sum below 2^53, since every sum of
   them is then exact in any order, else [with_slack]'s. *)
let slack_for values =
  let total = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 values in
  if Array.for_all Float.is_integer values && total < 0x1p53 then 0.0
  else 1e-9

let root_dual objective rows =
  let n = Array.length objective in
  let lambda = Array.make (Array.length rows) 0.0 in
  let red = Array.copy objective in
  let minimize_row r =
    let { c; b } = rows.(r) in
    let d = Array.init n (fun j -> red.(j) +. (lambda.(r) *. c.(j))) in
    (* Slope just right of t = 0, and the breakpoints beyond 0 with the
       slope change each brings. *)
    let slope = ref (b +. eps) and breaks = ref [] in
    for j = 0 to n - 1 do
      let a = c.(j) in
      if a <> 0.0 then begin
        let t = d.(j) /. a in
        if t > 0.0 then begin
          if a > 0.0 then slope := !slope -. a;
          breaks := (t, Float.abs a) :: !breaks
        end
        else if a < 0.0 then slope := !slope -. a
      end
    done;
    let t =
      if !slope >= 0.0 then 0.0
      else begin
        let breaks = Array.of_list !breaks in
        Array.sort (fun (t, _) (t', _) -> Float.compare t t') breaks;
        (* A slope still negative past the last breakpoint means the
           relaxation is infeasible; any λ ≥ 0 stays sound, so stop there. *)
        let k = ref 0 and t = ref lambda.(r) in
        while !k < Array.length breaks && !slope < 0.0 do
          let tk, w = breaks.(!k) in
          slope := !slope +. w;
          t := tk;
          incr k
        done;
        !t
      end
    in
    lambda.(r) <- t;
    Array.iteri (fun j dj -> red.(j) <- dj -. (t *. c.(j))) d
  in
  let rec sweep k prev =
    if k < max_sweeps then begin
      Array.iteri (fun r _ -> minimize_row r) rows;
      let v = fst (dual_value rows lambda red) in
      if v < prev -. (1e-9 *. (1.0 +. Float.abs prev)) then sweep (k + 1) v
    end
  in
  sweep 0 (fst (dual_value rows lambda red));
  let red = reduced_costs objective rows lambda in
  let v, mag = dual_value rows lambda red in
  ({ bound = with_slack v mag; multipliers = lambda }, red)

let dual_bound p =
  check_program p;
  fst (root_dual p.objective (Array.of_list (rows_of p)))

let solve ?(on_improve = fun _ _ -> ()) p =
  check_program p;
  Observe.bump c_solves;
  Observe.span t_solve @@ fun () ->
  let n = p.nvars in
  let rows = Array.of_list (rows_of p) in
  let nrows = Array.length rows in
  (* suffix_min.(r).(i) = minimum achievable contribution of variables
     [i..n-1] to row [r] — take exactly the negative coefficients. *)
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
  (* suffix_abs.(r).(i) = sum of |c_rj| over [i..n-1]: with the running
     lhs it bounds every partial sum a completion adds to row [r], hence
     the rounding by which a leaf's sum, taken in index order, can differ
     from the suffix sums taken from the end.  [row_rel.(r)] is the
     relative slack the row's comparisons get for it, [obj_rel] the
     objective's. *)
  let row_rel = Array.map (fun { c; b } -> slack_for (Array.append c [| b |])) rows in
  let obj_rel = slack_for p.objective in
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
  (* suffix_pos.(i) = sum of positive objective coefficients over
     [i..n-1]: the crude optimistic bound. *)
  let suffix_pos =
    let s = Array.make (n + 1) 0.0 in
    for j = n - 1 downto 0 do
      s.(j) <- s.(j + 1) +. Float.max p.objective.(j) 0.0
    done;
    s
  in
  (* The greedy (LP-relaxation-style) bound works against one designated
     budget row: a ≤-row with all-nonnegative coefficients.  Variables
     sorted by objective-per-unit-cost once up front; per node the greedy
     packs remaining positive-objective variables fractionally. *)
  let budget_row =
    Array.to_seq rows
    |> Seq.filter (fun { c; _ } -> Array.for_all (fun v -> v >= 0.0) c)
    |> Seq.uncons |> Option.map fst
  in
  let by_ratio =
    match budget_row with
    | None -> [||]
    | Some { c; _ } ->
        let idx =
          Array.of_seq
            (Seq.filter
               (fun j -> p.objective.(j) > 0.0)
               (Seq.init n Fun.id))
        in
        Array.sort
          (fun a b ->
            let r j = p.objective.(j) /. Float.max c.(j) eps in
            compare (r b) (r a))
          idx;
        idx
  in
  (* The ratio order as a doubly linked list over variable indices, with
     the sentinel [n], holding exactly the positive-objective variables at
     index [synced] and above.  [sync i] unlinks the variables the path
     has decided, in increasing index order, and on backtrack relinks
     them in decreasing order — the reverse of their unlinking, so each
     relink restores the exact order.  A bound then walks only undecided
     variables, and the upkeep is O(1) amortized per node of the
     depth-first search. *)
  let next = Array.make (n + 1) n and prev = Array.make (n + 1) n in
  let last =
    Array.fold_left
      (fun pj j ->
        prev.(j) <- pj;
        next.(pj) <- j;
        j)
      n by_ratio
  in
  next.(last) <- n;
  prev.(n) <- last;
  let synced = ref 0 in
  let sync i =
    while !synced < i do
      let j = !synced in
      if p.objective.(j) > 0.0 then begin
        next.(prev.(j)) <- next.(j);
        prev.(next.(j)) <- prev.(j)
      end;
      incr synced
    done;
    while !synced > i do
      decr synced;
      let j = !synced in
      if p.objective.(j) > 0.0 then begin
        next.(prev.(j)) <- j;
        prev.(next.(j)) <- j
      end
    done
  in
  (* The walk starts from a clamped capacity: a budget row full up to
     rounding leaves a capacity like -5.6e-17, which would stop the walk
     before zero-cost variables and cut a feasible optimum.  Clamping only
     raises the bound, so it stays sound. *)
  let greedy_bound i capacity =
    match budget_row with
    | None -> infinity
    | Some { c; _ } ->
        sync i;
        let cap = ref (Float.max capacity 0.0) and acc = ref 0.0 in
        let at = ref next.(n) in
        while !at <> n do
          let j = !at in
          if c.(j) <= !cap then begin
            acc := !acc +. p.objective.(j);
            cap := !cap -. c.(j);
            at := next.(j)
          end
          else begin
            if c.(j) > 0.0 then
              acc := !acc +. (p.objective.(j) *. !cap /. c.(j));
            at := n
          end
        done;
        !acc
  in
  (* Which internal row is the budget row (for its running lhs)?  Track
     running lhs for every row in the state instead — the budget row's
     capacity falls out of the same array. *)
  let budget_row_index =
    match budget_row with
    | None -> -1
    | Some br ->
        let rec find k = if rows.(k) == br then k else find (k + 1) in
        find 0
  in
  (* The Lagrangian node bound under the root multipliers: for any
     completion x meeting every row within [eps],
       obj + Σ_{j≥i} obj_j·x_j
         ≤ obj + Σ_{j≥i} red_j·x_j + Σ_r λ_r·(b_r + eps − lhs_r)
         ≤ obj + suffix_red.(i) + Σ_r λ_r·(b_r + eps − lhs_r),
     since each λ_r ≥ 0 multiplies the row's remaining slack.  O(rows
     with λ_r > 0) per node. *)
  let lag_rows, suffix_red =
    let { multipliers; _ }, red = root_dual p.objective rows in
    let s = Array.make (n + 1) 0.0 in
    for j = n - 1 downto 0 do
      s.(j) <- s.(j + 1) +. Float.max red.(j) 0.0
    done;
    ( Array.to_seqi multipliers
      |> Seq.filter (fun (_, l) -> l > 0.0)
      |> Seq.map (fun (r, l) -> (r, l, rows.(r).b +. eps))
      |> Array.of_seq,
      s )
  in
  let lagrangian_bound obj i lhs =
    let acc = ref (obj +. suffix_red.(i))
    and mag = ref (Float.abs obj +. suffix_red.(i)) in
    Array.iter
      (fun (r, l, b) ->
        let v = l *. (b -. lhs.(r)) in
        acc := !acc +. v;
        mag := !mag +. Float.abs v)
      lag_rows;
    with_slack !acc !mag
  in
  (* run_end.(j): the first index past the run of adjacent variables equal
     to [j] in objective and in every row.  The skip child jumps there, so
     a run is only ever taken as a prefix: its selections are
     interchangeable, and their row sums bit-identical (the same values
     added in the same order). *)
  let run_end =
    let same j k =
      p.objective.(j) = p.objective.(k)
      && Array.for_all (fun { c; _ } -> c.(j) = c.(k)) rows
    in
    let e = Array.make (n + 1) n in
    for j = n - 2 downto 0 do
      e.(j) <- (if same j (j + 1) then e.(j + 1) else j + 1)
    done;
    e
  in
  let module Space = struct
    type state = { i : int; chosen : int list; obj : float; lhs : float array }

    let tick = tick

    (* A child is emitted only when every row can still be satisfied by
       some completion — the feasibility pruning.  The row's bound is
       raised by the relative slack, so that rounding never cuts a
       completion the leaf check accepts. *)
    let viable st =
      let ok = ref true in
      for r = 0 to nrows - 1 do
        let lhs = st.lhs.(r) and rel = row_rel.(r) in
        let limit = rows.(r).b +. eps in
        let limit =
          if rel = 0.0 then limit
          else slack rel limit (Float.abs lhs +. suffix_abs.(r).(st.i))
        in
        if lhs +. suffix_min.(r).(st.i) > limit then ok := false
      done;
      !ok

    let branches st =
      if st.i = n then []
      else begin
        let take =
          let lhs = Array.copy st.lhs in
          for r = 0 to nrows - 1 do
            lhs.(r) <- lhs.(r) +. rows.(r).c.(st.i)
          done;
          {
            i = st.i + 1;
            chosen = st.i :: st.chosen;
            obj = st.obj +. p.objective.(st.i);
            lhs;
          }
        in
        let skip = { st with i = run_end.(st.i) } in
        List.filter viable [ take; skip ]
      end

    let solution st =
      if st.i = n then begin
        let ok = ref true in
        for r = 0 to nrows - 1 do
          if st.lhs.(r) > rows.(r).b +. eps then ok := false
        done;
        if !ok then Some st.obj else None
      end
      else None

    (* The crude and knapsack bounds are raised by the objective's slack,
       and the knapsack's capacity by its row's: all three are sums taken
       in another order than the leaf's.  An exact row keeps its exact
       capacity, without the tolerance, so that a tie with the incumbent
       on integer data is still cut. *)
    let bound st =
      let mag = Float.abs st.obj +. suffix_pos.(st.i) in
      let cheap =
        Float.min
          (slack obj_rel (st.obj +. suffix_pos.(st.i)) mag)
          (lagrangian_bound st.obj st.i st.lhs)
      in
      if budget_row_index < 0 then cheap
      else
        let r = budget_row_index in
        let lhs = st.lhs.(r) in
        let capacity =
          if row_rel.(r) = 0.0 then rows.(r).b -. lhs
          else
            slack row_rel.(r) (rows.(r).b +. eps -. lhs)
              (Float.abs lhs +. suffix_abs.(r).(st.i))
        in
        Float.min cheap
          (slack obj_rel (st.obj +. greedy_bound st.i capacity) mag)
  end in
  let module Search = Bnb.Make (Space) in
  let to_selection chosen =
    let x = Array.make n false in
    List.iter (fun j -> x.(j) <- true) chosen;
    x
  in
  let incumbent =
    Bnb.Incumbent.create
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

let solve_budgeted ?budget p =
  let best = ref None in
  Robust.Budget.run ?budget
    ~partial:(fun _ -> !best)
    (fun () -> solve ~on_improve:(fun v x -> best := Some (v, x)) p)
