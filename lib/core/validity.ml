module Database = Relational.Database
module Relation = Relational.Relation

(* Q(D ⊕ N) is evaluated as a delta over the prepared base plan, with the
   from-scratch evaluation as fallback.  The oracle searches re-check the
   same packages across calls (binary search over bounds, per-tuple
   commitment probes); the verdict only depends on the package, so it is
   memoized on the instance. *)
let delta_compatible (inst : Instance.t) qc n =
  Instance.memo_compat inst n (fun () ->
      let rq = Package.to_relation (Instance.answer_schema inst) n in
      match Instance.compat_delta inst with
      | Some d -> Qlang.Engine.delta_is_empty d rq
      | None ->
          let db' = Database.add rq inst.db in
          Relation.is_empty (Qlang.Query.eval ~dist:inst.dist db' qc))

let compatible (inst : Instance.t) n =
  match inst.compat with
  | Instance.No_constraint -> true
  | Instance.Compat_fn (_, f) -> f n inst.db
  | Instance.Compat_query qc when Qlang.Query.is_empty_query qc -> true
  | Instance.Compat_query qc -> (
      (* A CQ/UCQ constraint answers a package inside Q(D) by a subset test
         against its conflict sets, unmemoized: a lookup in the verdict
         memo would cost more.  Everything else takes the delta route,
         which also stays the differential oracle in the tests. *)
      match
        Option.bind (Instance.compat_conflicts inst) (fun cs ->
            Conflicts.compatible cs n)
      with
      | Some verdict -> verdict
      | None -> delta_compatible inst qc n)

let within_budget (inst : Instance.t) n =
  Rating.eval inst.cost n <= inst.budget

let within_size (inst : Instance.t) n =
  Package.size n <= Instance.max_package_size inst

let valid ?candidates (inst : Instance.t) n =
  let cands =
    match candidates with Some c -> c | None -> Instance.candidates inst
  in
  Package.subset_of_relation n cands
  && within_size inst n && within_budget inst n && compatible inst n

let valid_for_bound ?candidates (inst : Instance.t) ~bound n =
  valid ?candidates inst n && Rating.eval inst.value n >= bound
