module Paql = Qlang.Paql
module Paql_compile = Core.Paql_compile
module Pb = Solvers.Pb
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value

let c_solves = Observe.counter "sketch.solves"
let c_partitions = Observe.counter "sketch.partitions"
let c_refines = Observe.counter "sketch.refines"
let c_backtracks = Observe.counter "sketch.backtracks"
let t_sketch = Observe.timer "sketch.sketch"
let t_refine = Observe.timer "sketch.refine"

type stats = {
  npartitions : int;
  partitions_touched : int;
  backtracks : int;
  winner : string;
}

type outcome = {
  answer : Paql_compile.answer option;
  stats : stats;
}

let eps = 1e-9

(* Fuel for the inner exact solves: each sketch/refine subproblem is
   small, and the cap turns a pathological subproblem into an anytime
   (incumbent) answer instead of a hang.  The ambient budget is checked
   between subproblems, so outer deadlines stay live. *)
let inner_fuel = 150_000

(* Tuples per refine subproblem, before an infeasible step widens it. *)
let shortlist = 48

(* Best incumbent of a fuel-capped exact solve: the exact answer when the
   cap was not binding, the best feasible selection found otherwise.  Only
   the cap is an anytime answer: the other way the inner budget trips, an
   injected [Exhaust] fault, propagates to the caller's budget. *)
let solve_capped program =
  match
    Pb.solve_budgeted ~budget:(Robust.Budget.make ~fuel:inner_fuel ()) program
  with
  | Robust.Budget.Exact r -> r
  | Robust.Budget.Partial { best_so_far; reason = Robust.Budget.Fuel; _ } ->
      best_so_far
  | Robust.Budget.Partial { reason; _ } -> raise (Robust.Budget.Exhausted reason)

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)
(* ------------------------------------------------------------------ *)

type partition = {
  members : int array;  (** candidate indices, sorted by key value *)
  rep : int;  (** candidate index of the representative *)
  mean_key : float;
}

(* The partition key: the column the objective aggregates when it is a
   SUM, else the first SUM constraint's column, else the first column. *)
let key_column (c : Paql_compile.t) =
  let schema = Paql_compile.schema c in
  let of_agg = function Paql.Sum col -> Some col | _ -> None in
  let obj_col =
    match c.Paql_compile.query.Paql.objective with
    | Paql.Maximize a | Paql.Minimize a -> of_agg a
    | Paql.No_objective -> None
  in
  let constr_col =
    List.find_map
      (fun g -> of_agg g.Paql.agg)
      c.Paql_compile.query.Paql.such_that
  in
  match obj_col with
  | Some col -> Schema.attr_index schema col
  | None -> (
      match constr_col with
      | Some col -> Schema.attr_index schema col
      | None -> 0)

let colv t i =
  match Tuple.get t i with Value.Int n -> float_of_int n | _ -> 0.0

let default_npartitions n = max 2 (min 24 (n / 128))

(* Contiguous slices of the candidates sorted by interned key value:
   equal key values land in the same partition (up to the slice
   boundary), and each partition's representative is the member whose
   key is closest to the partition mean — the "aggregate stats" pick. *)
let partition_candidates (c : Paql_compile.t) ~npartitions =
  let cands = c.Paql_compile.linear.cands in
  let n = Array.length cands in
  let key = key_column c in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let cv = Float.compare (colv cands.(a) key) (colv cands.(b) key) in
      if cv <> 0 then cv else compare a b)
    order;
  let nparts = max 1 (min npartitions n) in
  let size = (n + nparts - 1) / nparts in
  List.init nparts (fun p ->
      let lo = p * size in
      let hi = min n (lo + size) in
      if lo >= hi then None
      else begin
        Observe.bump c_partitions;
        Robust.Budget.check ();
        Robust.Fault.hit "sketch.partition";
        let members = Array.sub order lo (hi - lo) in
        let sum = ref 0.0 in
        Array.iter (fun j -> sum := !sum +. colv cands.(j) key) members;
        let mean_key = !sum /. float_of_int (Array.length members) in
        let rep = ref members.(0) in
        let best = ref (Float.abs (colv cands.(members.(0)) key -. mean_key)) in
        Array.iter
          (fun j ->
            let d = Float.abs (colv cands.(j) key -. mean_key) in
            if d < !best then begin
              best := d;
              rep := j
            end)
          members;
        Some { members; rep = !rep; mean_key }
      end)
  |> List.filter_map Fun.id
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Feasibility helpers on the linear form                              *)
(* ------------------------------------------------------------------ *)

let objective_of (c : Paql_compile.t) chosen =
  List.fold_left
    (fun acc j -> acc +. c.Paql_compile.linear.objective.(j))
    0.0 chosen

(* Answers and feasibility checks work on the chosen candidate indices:
   a candidate-sized array per check would be allocated straight into the
   major heap.  Each row is summed over the chosen indices in increasing
   order, the same float sums as [Pb.feasible] on the selection. *)
let feasible_chosen (c : Paql_compile.t) chosen =
  let chosen = List.sort compare chosen in
  List.for_all
    (fun row ->
      Pb.holds row
        (List.fold_left (fun s j -> s +. row.Pb.coeffs.(j)) 0.0 chosen))
    c.Paql_compile.linear.constraints

(* ------------------------------------------------------------------ *)
(* Fallback candidates                                                 *)
(* ------------------------------------------------------------------ *)

(* The designated budget row: first ≤-row with all-nonnegative
   coefficients — the knapsack shape the 1/2-approximation needs. *)
let budget_row (c : Paql_compile.t) =
  List.find_opt
    (fun { Pb.coeffs; cmp; _ } ->
      cmp = Pb.Le && Array.for_all (fun v -> v >= 0.0) coeffs)
    c.Paql_compile.linear.constraints

(* Greedy ratio packing: walk candidates by objective-per-unit-cost and
   add while every ≤-row stays within its bound; ≥/= rows are checked on
   the final selection (the greedy result is discarded if they fail). *)
let greedy_pack (c : Paql_compile.t) =
  let { Paql_compile.cands; objective; constraints; _ } =
    c.Paql_compile.linear
  in
  let n = Array.length cands in
  if n = 0 then None
  else begin
    let ratio =
      match budget_row c with
      | Some { Pb.coeffs; _ } ->
          fun j -> objective.(j) /. Float.max coeffs.(j) eps
      | None -> fun j -> objective.(j)
    in
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> Float.compare (ratio b) (ratio a)) order;
    let le_rows =
      List.filter (fun r -> r.Pb.cmp = Pb.Le) constraints |> Array.of_list
    in
    let lhs = Array.make (Array.length le_rows) 0.0 in
    let chosen = ref [] in
    Array.iter
      (fun j ->
        if objective.(j) > 0.0 then begin
          let fits = ref true in
          Array.iteri
            (fun r row ->
              if lhs.(r) +. row.Pb.coeffs.(j) > row.Pb.rhs +. eps then
                fits := false)
            le_rows;
          if !fits then begin
            Array.iteri
              (fun r row -> lhs.(r) <- lhs.(r) +. row.Pb.coeffs.(j))
              le_rows;
            chosen := j :: !chosen
          end
        end)
      order;
    if !chosen <> [] && feasible_chosen c !chosen then Some !chosen else None
  end

(* Best feasible singleton, by direct row evaluation — O(n·rows). *)
let best_singleton (c : Paql_compile.t) =
  let { Paql_compile.cands; objective; constraints; _ } =
    c.Paql_compile.linear
  in
  let n = Array.length cands in
  let rows = Array.of_list constraints in
  let single_ok j = Array.for_all (fun row -> Pb.holds row row.Pb.coeffs.(j)) rows in
  let best = ref None in
  for j = 0 to n - 1 do
    if single_ok j then
      match !best with
      | Some b when objective.(b) >= objective.(j) -> ()
      | _ -> best := Some j
  done;
  Option.map (fun j -> [ j ]) !best

(* ------------------------------------------------------------------ *)
(* Sketch and refine                                                   *)
(* ------------------------------------------------------------------ *)

(* Multiplicity cap per partition: a COUNT ≤/= k constraint bounds any
   package at k tuples; without one, a small default keeps the sketch
   instance within the exact solver's reach. *)
let multiplicity_cap (c : Paql_compile.t) =
  let count_cap =
    List.fold_left
      (fun acc g ->
        match (g.Paql.agg, g.Paql.gcmp) with
        | Paql.Count, (Paql.Le | Paql.Eq) ->
            min acc (max 0 (int_of_float g.Paql.gvalue))
        | _ -> acc)
      max_int c.Paql_compile.query.Paql.such_that
  in
  if count_cap = max_int then 8 else count_cap

(* The sketch program: one variable per (partition, copy), every copy
   carrying the representative's coefficients.  [caps] lets backtracking
   re-sketch with a failing partition held down. *)
let sketch_program (c : Paql_compile.t) parts caps =
  let { Paql_compile.objective; constraints; _ } = c.Paql_compile.linear in
  let vars =
    Array.to_list parts
    |> List.mapi (fun p part -> List.init caps.(p) (fun _ -> (p, part.rep)))
    |> List.concat |> Array.of_list
  in
  let nv = Array.length vars in
  let project coeffs = Array.map (fun (_, j) -> coeffs.(j)) vars in
  ( vars,
    {
      Pb.nvars = nv;
      objective = project objective;
      constraints =
        List.map
          (fun r -> { r with Pb.coeffs = project r.Pb.coeffs })
          constraints;
    } )

(* Residual program for refining partition [p]: select real tuples from
   its shortlist; every other partition contributes its current estimate
   (already-refined partitions their real tuples, unrefined ones their
   representative × multiplicity). *)
let refine_program (c : Paql_compile.t) ~shortlist_idx ~fixed_contrib
    ~planned_contrib =
  let { Paql_compile.objective; constraints; _ } = c.Paql_compile.linear in
  let project coeffs = Array.map (fun j -> coeffs.(j)) shortlist_idx in
  {
    Pb.nvars = Array.length shortlist_idx;
    objective = project objective;
    constraints =
      List.mapi
        (fun r row ->
          {
            row with
            Pb.coeffs = project row.Pb.coeffs;
            rhs = row.Pb.rhs -. fixed_contrib.(r) -. planned_contrib.(r);
          })
        constraints;
  }

let shortlist_of (c : Paql_compile.t) part ~width =
  let objective = c.Paql_compile.linear.objective in
  let ratio =
    match budget_row c with
    | Some { Pb.coeffs; _ } ->
        fun j -> objective.(j) /. Float.max coeffs.(j) eps
    | None -> fun j -> objective.(j)
  in
  let sorted = Array.copy part.members in
  Array.sort (fun a b -> Float.compare (ratio b) (ratio a)) sorted;
  Array.sub sorted 0 (min width (Array.length sorted))

let row_contrib rows j = Array.map (fun r -> r.Pb.coeffs.(j)) rows

(* One full sketch-then-refine pass under the given multiplicity caps.
   Returns the chosen candidate indices (feasibility NOT yet checked) or
   the index of the partition whose refine step failed. *)
let refine_pass (c : Paql_compile.t) parts caps ~touched =
  let rows = Array.of_list c.Paql_compile.linear.constraints in
  let nrows = Array.length rows in
  let vars, sk_prog = sketch_program c parts caps in
  match Observe.span t_sketch @@ fun () -> solve_capped sk_prog with
  | None -> Error None (* sketch infeasible: no partition to blame *)
  | Some (_, sel) ->
      (* planned multiplicity per partition *)
      let mult = Array.make (Array.length parts) 0 in
      Array.iteri
        (fun v taken -> if taken then mult.(fst vars.(v)) <- mult.(fst vars.(v)) + 1)
        sel;
      (* refine partitions in descending planned objective contribution *)
      let order =
        Array.init (Array.length parts) Fun.id |> Array.to_list
        |> List.filter (fun p -> mult.(p) > 0)
        |> List.sort (fun a b ->
               let contrib p =
                 float_of_int mult.(p)
                 *. c.Paql_compile.linear.objective.(parts.(p).rep)
               in
               Float.compare (contrib b) (contrib a))
      in
      let fixed = Array.make nrows 0.0 in
      let chosen = ref [] in
      let refined = Hashtbl.create 8 in
      let failed = ref None in
      List.iter
        (fun p ->
          if !failed = None then begin
            Observe.bump c_refines;
            incr touched;
            Robust.Budget.check ();
            Robust.Fault.hit "sketch.refine";
            Hashtbl.replace refined p ();
            (* planned contributions of partitions not yet refined *)
            let planned = Array.make nrows 0.0 in
            Array.iteri
              (fun q part ->
                if q <> p && (not (Hashtbl.mem refined q)) && mult.(q) > 0
                then
                  let rc = row_contrib rows part.rep in
                  Array.iteri
                    (fun r v ->
                      planned.(r) <- planned.(r) +. (float_of_int mult.(q) *. v))
                    rc)
              parts;
            let rec attempt width =
              let shortlist_idx = shortlist_of c parts.(p) ~width in
              let prog =
                refine_program c ~shortlist_idx ~fixed_contrib:fixed
                  ~planned_contrib:planned
              in
              match Observe.span t_refine @@ fun () -> solve_capped prog with
              | Some (_, sel') ->
                  Array.iteri
                    (fun v taken ->
                      if taken then begin
                        let j = shortlist_idx.(v) in
                        chosen := j :: !chosen;
                        Array.iteri
                          (fun r row -> fixed.(r) <- fixed.(r) +. row.Pb.coeffs.(j))
                          rows
                      end)
                    sel';
                  true
              | None ->
                  (* widen the shortlist once before giving up *)
                  let full = Array.length parts.(p).members in
                  if width < min full 512 then attempt (min full 512)
                  else false
            in
            if not (attempt shortlist) then failed := Some p
          end)
        order;
      (match !failed with Some p -> Error (Some p) | None -> Ok !chosen)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let max_backtracks = 4

(* The best candidate answer so far, in precedence order sketch-refine,
   greedy, singleton, empty: a higher objective wins, and on equal
   objectives the earlier candidate.  [solve_budgeted]'s partial reads it,
   so a deadline that lands mid-refine still reports a feasible package. *)
type best = (int * string * float * int list) option ref

let note (c : Paql_compile.t) (best : best) rank name = function
  | None -> ()
  | Some sel -> (
      let v = objective_of c sel in
      match !best with
      | Some (br, _, bv, _) when bv > v || (bv = v && br < rank) -> ()
      | _ -> best := Some (rank, name, v, sel))

let answer_of (c : Paql_compile.t) (best : best) =
  Option.map (fun (_, _, v, sel) -> Paql_compile.answer_of_chosen c v sel) !best

let solve_into (best : best) ?npartitions (c : Paql_compile.t) =
  Observe.bump c_solves;
  (* the cheap sound fallbacks first: they do not recurse into the
     budgeted pipeline, and each is checked against the full row
     semantics *)
  note c best 1 "greedy" (greedy_pack c);
  note c best 2 "singleton" (best_singleton c);
  note c best 3 "empty" (if feasible_chosen c [] then Some [] else None);
  let n = Array.length c.Paql_compile.linear.cands in
  let npartitions =
    match npartitions with Some p -> max 1 p | None -> default_npartitions n
  in
  let parts = partition_candidates c ~npartitions in
  let touched = ref 0 in
  let backtracks = ref 0 in
  (* sketch+refine with backtracking across partitions: a failing
     partition gets its multiplicity cap reduced and the sketch re-runs *)
  let cap = multiplicity_cap c in
  let caps =
    Array.map (fun part -> min cap (Array.length part.members)) parts
  in
  let rec drive attempts =
    if attempts > max_backtracks then None
    else
      match refine_pass c parts caps ~touched with
      | Ok chosen -> Some chosen
      | Error None -> None
      | Error (Some p) ->
          Observe.bump c_backtracks;
          incr backtracks;
          if caps.(p) = 0 then None
          else begin
            caps.(p) <- caps.(p) - 1;
            drive (attempts + 1)
          end
  in
  if Array.length parts > 0 then
    note c best 0 "sketch-refine"
      (match drive 0 with
      | Some chosen when feasible_chosen c chosen -> Some chosen
      | _ -> None);
  {
    answer = answer_of c best;
    stats =
      {
        npartitions = Array.length parts;
        partitions_touched = !touched;
        backtracks = !backtracks;
        winner =
          (match !best with Some (_, name, _, _) -> name | None -> "none");
      };
  }

let solve ?npartitions c = solve_into (ref None) ?npartitions c

let solve_budgeted ?budget ?npartitions c =
  let best = ref None in
  Robust.Budget.run ?budget
    ~partial:(fun _ -> answer_of c best)
    (fun () -> solve_into best ?npartitions c)

(* Kept for callers written against the retired instance-level shrinker:
   there is nothing left to register. *)
let install () = ()
