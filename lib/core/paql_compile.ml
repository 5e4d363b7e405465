module Paql = Qlang.Paql
module Pb = Solvers.Pb
module Relation = Relational.Relation
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Value = Relational.Value

type linear = {
  cands : Tuple.t array;
  objective : float array;
  constraints : Pb.constr list;
  minimize : bool;
}

type t = {
  query : Paql.t;
  inst : Instance.t;
  linear : linear;
}

type answer = {
  package : Package.t;
  objective : float;
}

exception Unsupported of string

let colv t i =
  match Tuple.get t i with Value.Int n -> float_of_int n | _ -> 0.0

let resolve schema col =
  match Schema.attr_index schema col with
  | i -> i
  | exception Not_found ->
      raise
        (Unsupported
           (Printf.sprintf "unknown column %s in relation %s" col
              schema.Schema.name))

(* Aggregate of a package, surface semantics (MIN/MAX of the empty package
   are +∞/−∞). *)
let eval_agg schema agg pkg =
  let over f init col =
    let i = resolve schema col in
    List.fold_left (fun acc t -> f acc (colv t i)) init (Package.to_list pkg)
  in
  match agg with
  | Paql.Count -> float_of_int (Package.size pkg)
  | Paql.Sum col -> over ( +. ) 0.0 col
  | Paql.Min col -> over Float.min infinity col
  | Paql.Max col -> over Float.max neg_infinity col

let holds cmp lhs rhs =
  match cmp with
  | Paql.Le -> lhs <= rhs +. 1e-9
  | Paql.Ge -> lhs >= rhs -. 1e-9
  | Paql.Eq -> Float.abs (lhs -. rhs) <= 1e-9

(* The per-tuple filter: WHERE predicates plus the prefilter halves of
   MIN/MAX global constraints (every member of a package with MIN(c) ≥ v
   has c ≥ v, and dually for MAX ≤ — sound and complete given the
   empty-package conventions above). *)
let tuple_filter schema q =
  let where =
    List.map
      (fun { Paql.col; pcmp; pvalue } ->
        let i = resolve schema col in
        fun t -> holds pcmp (colv t i) pvalue)
      q.Paql.where
  in
  let prefilters =
    List.concat_map
      (fun { Paql.agg; gcmp; gvalue } ->
        match (agg, gcmp) with
        | Paql.Min col, (Paql.Ge | Paql.Eq) ->
            let i = resolve schema col in
            [ (fun t -> colv t i >= gvalue -. 1e-9) ]
        | Paql.Max col, (Paql.Le | Paql.Eq) ->
            let i = resolve schema col in
            [ (fun t -> colv t i <= gvalue +. 1e-9) ]
        | _ -> [])
      q.Paql.such_that
  in
  let preds = where @ prefilters in
  fun t -> List.for_all (fun p -> p t) preds

(* Linear rows over the candidate array.  SUM/COUNT map directly; the
   residual halves of MIN/MAX become indicator rows forcing at least one
   qualifying tuple into the package. *)
let rows_of schema cands q =
  let n = Array.length cands in
  let coeffs_of col =
    let i = resolve schema col in
    Array.map (fun t -> colv t i) cands
  in
  let indicator col keep =
    let i = resolve schema col in
    Array.map (fun t -> if keep (colv t i) then 1.0 else 0.0) cands
  in
  let cmp_of = function Paql.Le -> Pb.Le | Paql.Ge -> Pb.Ge | Paql.Eq -> Pb.Eq in
  List.concat_map
    (fun { Paql.agg; gcmp; gvalue } ->
      match agg with
      | Paql.Count ->
          [ { Pb.coeffs = Array.make n 1.0; cmp = cmp_of gcmp; rhs = gvalue } ]
      | Paql.Sum col ->
          [ { Pb.coeffs = coeffs_of col; cmp = cmp_of gcmp; rhs = gvalue } ]
      | Paql.Min col -> (
          (* ≥/=: prefiltered per-tuple; ≤/= additionally need a witness
             tuple at or below the threshold. *)
          match gcmp with
          | Paql.Ge -> []
          | Paql.Le ->
              [
                {
                  Pb.coeffs = indicator col (fun v -> v <= gvalue +. 1e-9);
                  cmp = Pb.Ge;
                  rhs = 1.0;
                };
              ]
          | Paql.Eq ->
              [
                {
                  Pb.coeffs = indicator col (fun v -> holds Paql.Eq v gvalue);
                  cmp = Pb.Ge;
                  rhs = 1.0;
                };
              ])
      | Paql.Max col -> (
          match gcmp with
          | Paql.Le -> []
          | Paql.Ge ->
              [
                {
                  Pb.coeffs = indicator col (fun v -> v >= gvalue -. 1e-9);
                  cmp = Pb.Ge;
                  rhs = 1.0;
                };
              ]
          | Paql.Eq ->
              [
                {
                  Pb.coeffs = indicator col (fun v -> holds Paql.Eq v gvalue);
                  cmp = Pb.Ge;
                  rhs = 1.0;
                };
              ]))
    q.Paql.such_that

let objective_of schema cands q =
  let n = Array.length cands in
  let coeffs_of col =
    let i = resolve schema col in
    Array.map (fun t -> colv t i) cands
  in
  let of_agg = function
    | Paql.Count -> Array.make n 1.0
    | Paql.Sum col -> coeffs_of col
    | Paql.Min _ | Paql.Max _ ->
        raise (Unsupported "MIN/MAX objectives are not supported")
  in
  match q.Paql.objective with
  | Paql.No_objective -> (Array.make n 0.0, false)
  | Paql.Maximize a -> (of_agg a, false)
  | Paql.Minimize a -> (Array.map (fun v -> -.v) (of_agg a), true)

(* The instance view: cost/budget from the first SUM/COUNT ≤-constraint
   (COUNT also bounds the package size), value from the objective, and a
   PTIME Compat_fn re-checking every global constraint — promotion to
   cost/size is an optimization, never a semantic shift. *)
let instance_of db q schema cands rel_filtered =
  let value_rating =
    let of_agg = function
      | Paql.Count -> Rating.count
      | Paql.Sum col ->
          let i = resolve schema col in
          Rating.sum_col i
      | Paql.Min _ | Paql.Max _ ->
          raise (Unsupported "MIN/MAX objectives are not supported")
    in
    match q.Paql.objective with
    | Paql.No_objective -> Rating.const 0.0
    | Paql.Maximize a -> of_agg a
    | Paql.Minimize a -> Rating.neg (of_agg a)
  in
  let cost, budget =
    let promoted =
      List.find_map
        (fun { Paql.agg; gcmp; gvalue } ->
          match (agg, gcmp) with
          | Paql.Count, Paql.Le -> Some (Rating.count, gvalue)
          | Paql.Sum col, Paql.Le ->
              let i = resolve schema col in
              let nonneg =
                Array.for_all (fun t -> colv t i >= 0.0) cands
              in
              Some (Rating.sum_col ~nonneg i, gvalue)
          | _ -> None)
        q.Paql.such_that
    in
    match promoted with
    | Some cb -> cb
    | None -> (Rating.const 0.0, 0.0)
  in
  let size_bound =
    List.find_map
      (fun { Paql.agg; gcmp; gvalue } ->
        match (agg, gcmp) with
        | Paql.Count, (Paql.Le | Paql.Eq) ->
            Some (Size_bound.Const (max 0 (int_of_float gvalue)))
        | _ -> None)
      q.Paql.such_that
  in
  let compat =
    Instance.Compat_fn
      ( "paql.such_that",
        fun pkg _db ->
          List.for_all
            (fun { Paql.agg; gcmp; gvalue } ->
              holds gcmp (eval_agg schema agg pkg) gvalue)
            q.Paql.such_that )
  in
  let db' = Relational.Database.add rel_filtered db in
  Instance.make ~db:db' ~select:(Qlang.Query.Identity schema.Schema.name)
    ~compat ~cost ~value:value_rating ~budget ?size_bound ()

let compile db q =
  match Relational.Database.find db q.Paql.relation with
  | exception Not_found ->
      Error (Printf.sprintf "unknown relation %s" q.Paql.relation)
  | rel -> (
      try
        let schema = Relation.schema rel in
        let keep = tuple_filter schema q in
        let rel_filtered = Relation.filter keep rel in
        let cands = Relation.to_array rel_filtered in
        let objective, minimize = objective_of schema cands q in
        let constraints = rows_of schema cands q in
        let inst = instance_of db q schema cands rel_filtered in
        Ok { query = q; inst; linear = { cands; objective; constraints; minimize } }
      with Unsupported msg -> Error msg)

let compile_exn db q =
  match compile db q with Ok t -> t | Error msg -> invalid_arg ("Paql_compile: " ^ msg)

let parse_and_compile db text =
  match Paql.parse text with
  | q -> compile db q
  | exception Paql.Error msg -> Error ("parse error " ^ msg)

let schema t =
  Relation.schema (Relational.Database.find t.inst.Instance.db t.query.Paql.relation)

let program t =
  {
    Pb.nvars = Array.length t.linear.cands;
    objective = t.linear.objective;
    constraints = t.linear.constraints;
  }

let package_of_selection t x =
  let pkg = ref Package.empty in
  Array.iteri (fun j take -> if take then pkg := Package.add t.linear.cands.(j) !pkg) x;
  !pkg

let surface_objective t v = if t.linear.minimize then -.v else v

let answer_of_selection t v x =
  { package = package_of_selection t x; objective = surface_objective t v }

let answer_of_chosen t v chosen =
  {
    package =
      List.fold_left
        (fun pkg j -> Package.add t.linear.cands.(j) pkg)
        Package.empty chosen;
    objective = surface_objective t v;
  }

let satisfies t pkg =
  match t.inst.Instance.compat with
  | Instance.Compat_fn (_, f) -> f pkg t.inst.Instance.db
  | _ -> true

let solve_exact t =
  Option.map
    (fun (v, x) -> answer_of_selection t v x)
    (Pb.solve (program t))

let solve_budgeted ?budget t =
  let best = ref None in
  Robust.Budget.run ?budget
    ~partial:(fun _ -> !best)
    (fun () ->
      Option.map
        (fun (v, x) -> answer_of_selection t v x)
        (Pb.solve
           ~on_improve:(fun v x -> best := Some (answer_of_selection t v x))
           (program t)))