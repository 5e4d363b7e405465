module Relation = Relational.Relation

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

let topk inst ~k = Frp.enumerate inst ~k
let max_bound inst ~k = Mbp.max_bound inst ~k
let count inst ~bound = Cpp.count inst ~bound

(* ------------------------------------------------------------------ *)
(* Budgeted dispatch.

   Each entry point runs its solver under a budget; when the budget
   exhausts but the size bound is a constant (Corollary 6.1: the
   enumeration is polynomial, |Q(D)|^Bp nodes), the dispatcher degrades:
   it re-runs that exact polynomial algorithm with the budget masked and
   returns [Exact] instead of giving up.  Only a polynomial size bound
   surfaces [Partial]. *)
(* ------------------------------------------------------------------ *)

let c_degraded = Observe.counter "robust.degraded"

let degradable (inst : Instance.t) = Size_bound.is_constant inst.Instance.size_bound

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
  with_degrade inst (Frp.enumerate_budgeted ?budget inst ~k) (fun () ->
      topk inst ~k)

let max_bound_b ?budget inst ~k =
  let inst = verified inst in
  with_degrade inst (Mbp.max_bound_budgeted ?budget inst ~k) (fun () ->
      max_bound inst ~k)

let count_b ?budget inst ~bound =
  let inst = verified inst in
  with_degrade inst (Cpp.count_budgeted ?budget inst ~bound) (fun () ->
      count inst ~bound)
