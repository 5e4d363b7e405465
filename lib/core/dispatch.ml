module Relation = Relational.Relation

type route =
  | Items_path
  | Const_bound_path of int
  | Generic_path

let advisor_flags (inst : Instance.t) =
  {
    Analysis.Advisor.compat = Instance.has_compat inst;
    const_bound = Size_bound.is_constant inst.Instance.size_bound;
    items =
      (match inst.Instance.size_bound with
      | Size_bound.Const b -> b <= 1
      | Size_bound.Poly _ -> false);
    ptime_compat =
      (match inst.Instance.compat with
      | Instance.Compat_fn _ -> true
      | Instance.No_constraint | Instance.Compat_query _ -> false);
  }

let report inst ~problem =
  Analysis.Advisor.advise problem ~lang:(Instance.language inst)
    ~flags:(advisor_flags inst)

let route (inst : Instance.t) =
  let flags = advisor_flags inst in
  if flags.Analysis.Advisor.items && not flags.Analysis.Advisor.compat then
    Items_path
  else
    match inst.Instance.size_bound with
    | Size_bound.Const b -> Const_bound_path b
    | Size_bound.Poly _ -> Generic_path

(* The valid packages of an items instance: ∅ and the singletons, within
   budget (compatibility constraints are absent on this path, and every
   candidate set trivially contains its own singletons).  This is exactly
   [Exist_pack.all_valid] restricted to sizes ≤ 1. *)
let items_valid (inst : Instance.t) =
  let cost = Rating.eval inst.Instance.cost in
  let pkgs =
    Package.empty
    :: Relation.fold
         (fun t acc -> Package.singleton t :: acc)
         (Instance.candidates inst) []
  in
  List.filter (fun p -> cost p <= inst.Instance.budget) pkgs

(* Rated once per package, then sorted: (value, package) pairs. *)
let by_value_desc (inst : Instance.t) pkgs =
  let value = Rating.eval inst.Instance.value in
  List.sort
    (fun (va, a) (vb, b) ->
      let cv = Float.compare vb va in
      if cv <> 0 then cv else Package.compare a b)
    (List.map (fun p -> (value p, p)) pkgs)

let take k l = List.filteri (fun i _ -> i < k) l

let topk inst ~k =
  match route inst with
  | Items_path ->
      let valid = items_valid inst in
      if List.length valid < k then None
      else Some (take k (List.map snd (by_value_desc inst valid)))
  | Const_bound_path _ | Generic_path -> Frp.enumerate inst ~k

(* ------------------------------------------------------------------ *)
(* Approximate route (SketchRefine).

   The sketch library registers a candidate-pool shrinker at program
   start ([Sketch.install ()]); the dispatcher stays ignorant of how the
   pool is reduced and only guarantees soundness: the reduced pool is
   re-exposed as an [Identity] selection over a fresh relation, so every
   package the exact solvers then produce consists of real candidates
   from Q(D) and passes the instance's own cost/compat checks.  Without a
   registered shrinker (or below the threshold) the route is exact. *)
(* ------------------------------------------------------------------ *)

type approx_stats = {
  from_cands : int;
  to_cands : int;
  partitions : int;
}

let shrinker :
    (Instance.t -> max_cands:int -> (Relation.t * int) option) option ref =
  ref None

let set_approx_shrinker f = shrinker := Some f

let approx_available () = Option.is_some !shrinker

let approx_threshold =
  match Sys.getenv_opt "PKG_APPROX_THRESHOLD" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 512)
  | None -> 512

let approx_rel_name = "Q_approx"

let c_approx = Observe.counter "dispatch.approx_routes"

let approx_instance ?(max_cands = approx_threshold) inst =
  match !shrinker with
  | None -> None
  | Some shrink -> (
      match shrink inst ~max_cands with
      | None -> None
      | Some (reduced, partitions) ->
          Observe.bump c_approx;
          let from_cands = Relation.cardinal (Instance.candidates inst) in
          let schema = Relation.schema reduced in
          let reduced =
            Relation.rename
              (Relational.Schema.make approx_rel_name
                 (Array.to_list schema.Relational.Schema.attrs))
              reduced
          in
          let db' = Relational.Database.add reduced inst.Instance.db in
          let inst' =
            Instance.with_select
              (Instance.with_db inst db')
              (Qlang.Query.Identity approx_rel_name)
          in
          Some
            ( inst',
              {
                from_cands;
                to_cands = Relation.cardinal reduced;
                partitions;
              } ))

let report_approx inst ~(stats : approx_stats) =
  let r = report inst ~problem:Analysis.Advisor.Frp in
  {
    r with
    Analysis.Advisor.notes =
      r.Analysis.Advisor.notes
      @ [
          Printf.sprintf
            "approx route: candidate pool shrunk %d -> %d over %d \
             partitions; answers stay sound (real candidates, \
             cost/compat-checked) but optimality is no longer guaranteed"
            stats.from_cands stats.to_cands stats.partitions;
        ];
  }

let max_bound inst ~k =
  match route inst with
  | Items_path ->
      let valid = items_valid inst in
      if List.length valid < k then None
      else Some (fst (List.nth (by_value_desc inst valid) (k - 1)))
  | Const_bound_path _ | Generic_path -> Mbp.max_bound inst ~k

let count inst ~bound =
  match route inst with
  | Items_path ->
      let value = Rating.eval inst.Instance.value in
      List.length (List.filter (fun p -> value p >= bound) (items_valid inst))
  | Const_bound_path _ | Generic_path -> Cpp.count inst ~bound

(* ------------------------------------------------------------------ *)
(* Budgeted dispatch.

   Each entry point runs its routed procedure under [Robust.Budget.run];
   when the budget exhausts but the analyzer certifies a tractable special
   case — single-item packages, or a constant size bound (Corollary 6.1:
   the enumeration is polynomial, |Q(D)|^Bp nodes) — the dispatcher
   degrades: it re-runs that exact polynomial algorithm with the budget
   masked and returns [Exact] instead of giving up.  Only the genuinely
   hard [Generic_path] surfaces [Partial]. *)
(* ------------------------------------------------------------------ *)

let c_degraded = Observe.counter "robust.degraded"

let degradable inst =
  match route inst with
  | Items_path | Const_bound_path _ -> true
  | Generic_path -> false

(* ------------------------------------------------------------------ *)
(* Plan verification mode                                              *)
(* ------------------------------------------------------------------ *)

let verify_plans (inst : Instance.t) =
  let check_query db q =
    Analysis.Plan_check.check ~db ~query:q (Qlang.Query.plan db q)
  in
  let select_diags = check_query inst.Instance.db inst.Instance.select in
  let compat_diags =
    match inst.Instance.compat with
    | Instance.Compat_query qc ->
        (* Qc evaluates over D ⊕ candidate package, the package published
           as the answer relation; verify against the database extended
           with an empty relation of that schema. *)
        let db' =
          Relational.Database.add
            (Relation.empty (Instance.answer_schema inst))
            inst.Instance.db
        in
        check_query db' qc
    | Instance.No_constraint | Instance.Compat_fn _ -> []
  in
  Analysis.Diagnostic.sort (select_diags @ compat_diags)

let verify_mode =
  match Sys.getenv_opt "PKG_VERIFY_PLANS" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let verified inst =
  if verify_mode then begin
    let ds = verify_plans inst in
    if Analysis.Diagnostic.has_errors ds then
      failwith
        (Format.asprintf "plan verification failed:@\n%a"
           Analysis.Diagnostic.pp_list ds)
  end;
  inst

let with_degrade inst outcome recompute =
  match outcome with
  | Robust.Budget.Partial _ when degradable inst ->
      Observe.bump c_degraded;
      Robust.Budget.Exact (Robust.Budget.unbudgeted recompute)
  | o -> o

let topk_b ?budget inst ~k =
  let inst = verified inst in
  let outcome =
    match route inst with
    | Items_path ->
        Robust.Budget.run ?budget ~partial:(fun _ -> None) (fun () ->
            topk inst ~k)
    | Const_bound_path _ | Generic_path ->
        Frp.enumerate_budgeted ?budget inst ~k
  in
  with_degrade inst outcome (fun () -> topk inst ~k)

let max_bound_b ?budget inst ~k =
  let inst = verified inst in
  let outcome =
    match route inst with
    | Items_path ->
        Robust.Budget.run ?budget ~partial:(fun _ -> None) (fun () ->
            max_bound inst ~k)
    | Const_bound_path _ | Generic_path -> Mbp.max_bound_budgeted ?budget inst ~k
  in
  with_degrade inst outcome (fun () -> max_bound inst ~k)

let topk_approx ?budget ?max_cands inst ~k =
  match approx_instance ?max_cands inst with
  | None -> (topk_b ?budget inst ~k, None)
  | Some (inst', stats) -> (topk_b ?budget inst' ~k, Some stats)

let count_b ?budget inst ~bound =
  let inst = verified inst in
  let outcome =
    match route inst with
    | Items_path ->
        Robust.Budget.run ?budget ~partial:(fun _ -> None) (fun () ->
            count inst ~bound)
    | Const_bound_path _ | Generic_path ->
        Cpp.count_budgeted ?budget inst ~bound
  in
  with_degrade inst outcome (fun () -> count inst ~bound)
