module Database = Relational.Database
module Relation = Relational.Relation

(* The package as the relation Qc reads it by. *)
let rq (inst : Instance.t) n = Package.to_relation (Instance.answer_schema inst) n

let compatible (inst : Instance.t) n =
  match inst.compat with
  | Instance.No_constraint -> true
  | Instance.Compat_fn (_, f) -> f n inst.db
  | Instance.Compat_query qc -> (
      match Instance.compat_route inst with
      | None -> true
      | Some (Instance.Delta d) ->
          (* The oracle searches re-check the same packages across calls
             (binary search over bounds, per-tuple commitment probes); the
             verdict only depends on the package, so it is memoized. *)
          Instance.memo_compat inst n (fun () ->
              Qlang.Engine.delta_is_empty d (rq inst n))
      | Some (Instance.Sets cs) -> (
          (* A subset test, unmemoized: a lookup in the verdict memo would
             cost more.  Every search starts inside Q(D); a package outside
             it (only a direct caller passes one) is answered from
             scratch. *)
          match Conflicts.compatible cs n with
          | Some verdict -> verdict
          | None ->
              let db' = Database.add (rq inst n) inst.db in
              Relation.is_empty (Qlang.Query.eval ~dist:inst.dist db' qc)))

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
