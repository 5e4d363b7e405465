module Database = Relational.Database
module Schema = Relational.Schema
module Relation = Relational.Relation
module Tuple = Relational.Tuple

let c_cands_hit = Observe.counter "memo.candidates_hit"
let c_cands_miss = Observe.counter "memo.candidates_miss"
let c_compat_hit = Observe.counter "memo.compat_hit"
let c_compat_miss = Observe.counter "memo.compat_miss"
let c_compat_capped = Observe.counter "memo.compat_capped"
let c_cands_kept = Observe.counter "memo.candidates_kept"
let c_compat_kept = Observe.counter "memo.compat_kept"
let c_valid_hit = Observe.counter "memo.valid_hit"
let c_valid_miss = Observe.counter "memo.valid_miss"
let c_valid_capped = Observe.counter "memo.valid_capped"
let c_valid_kept = Observe.counter "memo.valid_kept"

type compat =
  | No_constraint
  | Compat_query of Qlang.Query.t
  | Compat_fn of string * (Package.t -> Database.t -> bool)

module Pmap = Map.Make (Package)

(* The compatibility slot belongs to one constraint; a record update that
   swaps [compat] must not read the old one's route or verdicts.  Queries
   compare by physical identity, functions too. *)
let same_compat a b =
  a == b
  || match (a, b) with Compat_query q, Compat_query q' -> q == q' | _ -> false

(* What the valid-package index was computed for.  The ratings and the
   constraint compare physically: reductions derive instances with
   [{ base with value; cost }] that share the memo.  [v_max_size] is the
   size bound capped at |Q(D)|, so a [Poly] bound that moves with |D|
   only misses when it actually cuts into the candidates. *)
type valid_key = {
  v_cost : Rating.t;
  v_value : Rating.t;
  v_compat : compat;
  v_budget : float;
  v_max_size : int;
}

(* How [Validity.compatible] answers a query constraint: by the conflict
   sets of a CQ/UCQ constraint, or by evaluating Qc as a delta over a
   prepared plan. *)
type route = Sets of Conflicts.t | Delta of Qlang.Engine.delta

(* The compatibility slot: unresolved, or the route resolved for [owner]
   together with the per-package verdicts computed under it. *)
type resolved = {
  owner : compat;
  route : route;
  verdicts : bool Pmap.t;
  n : int;
}

type slot = Unresolved | Resolved of resolved

(* Per-instance memo: Q(D), the compatibility slot and the valid-package
   index.  Attached as a fresh value by every constructor ([make],
   [with_db], [with_select]), which is what invalidates it when the
   database or the query changes.  Guarded by a mutex — the package
   search fans out over domains and they all share the instance.
   Computation happens outside the lock (a duplicated first computation is
   harmless; holding the lock through a query evaluation would serialize
   the domains). *)
type memo = {
  lock : Mutex.t;
  mutable cands : Relational.Relation.t option;
  compat : slot Atomic.t;  (* written under the lock, read also without it *)
  mutable valid : (valid_key * Valid_index.t) option;
}

let fresh_memo () =
  {
    lock = Mutex.create ();
    cands = None;
    compat = Atomic.make Unresolved;
    valid = None;
  }

(* Past this many entries new verdicts are recomputed rather than stored;
   the searches this cache serves revisit the same packages across oracle
   calls, so the hot set is reached long before the cap.  The
   valid-package index stores at most as many packages. *)
let compat_memo_cap = 1 lsl 16

type t = {
  db : Database.t;
  select : Qlang.Query.t;
  compat : compat;
  cost : Rating.t;
  value : Rating.t;
  budget : float;
  size_bound : Size_bound.t;
  dist : Qlang.Dist.env;
  answer_rel : string;
  memo : memo;
}

let make ~db ~select ?(compat = No_constraint) ~cost ~value ~budget
    ?(size_bound = Size_bound.linear) ?(dist = Qlang.Dist.empty)
    ?(answer_rel = "RQ") () =
  {
    db;
    select;
    compat;
    cost;
    value;
    budget;
    size_bound;
    dist;
    answer_rel;
    memo = fresh_memo ();
  }

let language inst = Qlang.Query.language inst.select

let compat_language inst =
  match inst.compat with
  | No_constraint | Compat_fn _ -> None
  | Compat_query q -> Some (Qlang.Query.language q)

let has_compat inst =
  match inst.compat with
  | No_constraint -> false
  | Compat_query q -> not (Qlang.Query.is_empty_query q)
  | Compat_fn _ -> true

(* Q(D) is asked for once per package check along the validity path; the
   instance is immutable, so evaluate once and replay. *)
let candidates inst =
  let m = inst.memo in
  match Mutex.protect m.lock (fun () -> m.cands) with
  | Some c ->
      Observe.bump c_cands_hit;
      c
  | None ->
      Observe.bump c_cands_miss;
      (* The compute happens outside the lock, and the store below only runs
         on a completed value — an exception here (including an injected
         fault) leaves the memo exactly as it was. *)
      Robust.Fault.hit "memo.candidates";
      let c = Qlang.Engine.eval ~dist:inst.dist inst.db inst.select in
      Mutex.protect m.lock (fun () ->
          match m.cands with
          | Some c' -> c'
          | None ->
              m.cands <- Some c;
              c)

let answer_schema inst =
  let sch = Qlang.Query.answer_schema inst.db inst.select in
  Schema.make inst.answer_rel (Array.to_list sch.Schema.attrs)

(* The slot's content when it was resolved for [inst]'s constraint.  The
   slot belongs to one constraint; a record update that swaps [compat]
   reads the old one's route as unresolved and, on resolving, replaces
   it. *)
let owned inst = function
  | Resolved r when same_compat r.owner inst.compat -> Some r
  | Resolved _ | Unresolved -> None

(* Resolved once per constraint: the conflict sets when they apply,
   otherwise Qc prepared for delta evaluation.  Both run outside the
   lock, under the caller's budget ([Conflicts.build] visits the
   [memo.compat] fault site), and the first completed resolution wins, so
   a fault or an exhausted budget leaves the slot unresolved. *)
let resolve inst qc =
  let answer () = Relation.rename (answer_schema inst) (candidates inst) in
  let route =
    match Conflicts.build ~cap:compat_memo_cap inst.db ~answer qc with
    | Some cs -> Sets cs
    | None ->
        Delta
          (Qlang.Engine.delta_prepare ~dist:inst.dist inst.db
             ~rel:inst.answer_rel ~schema:(answer_schema inst) qc)
  in
  let m = inst.memo in
  Mutex.protect m.lock @@ fun () ->
  match owned inst (Atomic.get m.compat) with
  | Some r -> r.route
  | None ->
      Atomic.set m.compat
        (Resolved { owner = inst.compat; route; verdicts = Pmap.empty; n = 0 });
      route

(* Every compatibility check asks, so a resolved route is read without
   the lock: the atomic read orders it after the resolution, and the slot
   names its constraint. *)
let compat_route inst =
  match inst.compat with
  | No_constraint | Compat_fn _ -> None
  | Compat_query qc when Qlang.Query.is_empty_query qc -> None
  | Compat_query qc -> (
      match owned inst (Atomic.get inst.memo.compat) with
      | Some r -> Some r.route
      | None -> Some (resolve inst qc))

let compat_delta inst =
  match compat_route inst with
  | Some (Delta d) -> Some d
  | Some (Sets _) | None -> None

let memo_compat inst pkg compute =
  let m = inst.memo in
  let cached =
    match owned inst (Atomic.get m.compat) with
    | Some r -> Pmap.find_opt pkg r.verdicts
    | None -> None
  in
  match cached with
  | Some verdict ->
      Observe.bump c_compat_hit;
      verdict
  | None ->
      Observe.bump c_compat_miss;
      (* Same discipline as [candidates]: only completed verdicts are
         absorbed, so a fault mid-compute cannot poison the memo. *)
      Robust.Fault.hit "memo.compat";
      let verdict = compute () in
      Mutex.protect m.lock (fun () ->
          match owned inst (Atomic.get m.compat) with
          | Some r when not (Pmap.mem pkg r.verdicts) ->
              if r.n < compat_memo_cap then
                Atomic.set m.compat
                  (Resolved
                     {
                       r with
                       verdicts = Pmap.add pkg verdict r.verdicts;
                       n = r.n + 1;
                     })
              else
                (* The cap makes the memo stop absorbing verdicts; keep that
                   visible instead of silent. *)
                Observe.bump c_compat_capped
          | Some _ | None -> ());
      verdict

(* Warm every shared structure a served request would otherwise build on
   first touch: the candidate memo (which compiles and runs the selection
   plan), the compatibility route and each relation's count tables (the
   planner's stats backing).  Everything forced here is idempotent and
   concurrent-safe, so prewarming is an optimization only — the daemon
   calls it once per loaded instance so the first request pays warm-state
   latency, not cold-start latency. *)
let prewarm inst =
  ignore (candidates inst);
  ignore (compat_route inst);
  List.iter
    (fun r -> ignore (Relation.col_counts r))
    (Database.relations inst.db)

let max_package_size inst =
  Size_bound.max_size inst.size_bound ~db_size:(Database.size inst.db)

let with_db inst db = { inst with db; memo = fresh_memo () }

let with_select inst select =
  { inst with select; memo = fresh_memo () }

(* ------------------------------------------------------------------ *)
(* The valid-package index                                             *)
(* ------------------------------------------------------------------ *)

let valid_key inst ~max_size =
  {
    v_cost = inst.cost;
    v_value = inst.value;
    v_compat = inst.compat;
    v_budget = inst.budget;
    v_max_size = max_size;
  }

let key_matches k inst ~max_size =
  k.v_cost == inst.cost && k.v_value == inst.value
  && same_compat k.v_compat inst.compat
  && Float.equal k.v_budget inst.budget
  && k.v_max_size = max_size

let valid_index inst ~max_size =
  let m = inst.memo in
  match
    Mutex.protect m.lock (fun () ->
        match m.valid with
        | Some (k, ix) when key_matches k inst ~max_size -> Some ix
        | _ -> None)
  with
  | Some _ as hit ->
      Observe.bump c_valid_hit;
      hit
  | None ->
      Observe.bump c_valid_miss;
      None

let store_valid_index inst ~max_size ~count build =
  if count > compat_memo_cap then begin
    Observe.bump c_valid_capped;
    None
  end
  else begin
    let ix = build () in
    let m = inst.memo in
    Mutex.protect m.lock (fun () ->
        m.valid <- Some (valid_key inst ~max_size, ix));
    Some ix
  end

(* ------------------------------------------------------------------ *)
(* Mutation: principled per-relation memo invalidation                 *)
(* ------------------------------------------------------------------ *)

(* [update_db] moves the instance to a new database while keeping every
   memo entry whose dependencies provably did not change, instead of the
   wholesale flush of [with_db].  The dependency of a memoized result is
   (a) the revisions of the relations its query mentions and (b) — for
   adom-sensitive queries only — the database's active domain.  The caller
   asserts domain preservation with [~adom_preserved]; when absent, adom
   sensitivity forces the flush.

   A kept delta route still evaluates against its original base: that
   is sound precisely under the condition checked here (the delta's
   relations are revision-identical and the answer is either
   adom-insensitive or the domain is preserved). *)
let update_db ?(adom_preserved = false) inst db' =
  let changed =
    List.filter
      (fun name -> Database.revision inst.db name <> Database.revision db' name)
      (List.sort_uniq compare (Database.names inst.db @ Database.names db'))
  in
  if changed = [] then { inst with db = db' }
  else begin
    let untouched q =
      (not (List.exists (fun r -> List.mem r changed) (Qlang.Query.rels q)))
      && (adom_preserved || not (Qlang.Query.adom_sensitive inst.db q))
    in
    (* Dependency checks compile (cached) plans: do them outside the lock. *)
    let keep_cands = untouched inst.select in
    let keep_compat =
      match inst.compat with
      | No_constraint -> true (* no verdict reads the database *)
      | Compat_query qc -> (not (Qlang.Query.is_empty_query qc)) && untouched qc
      | Compat_fn _ -> false (* opaque: every relation is a dependency *)
    in
    let m = inst.memo in
    let memo = fresh_memo () in
    Mutex.protect m.lock (fun () ->
        if keep_cands && m.cands <> None then begin
          memo.cands <- m.cands;
          Observe.bump c_cands_kept
        end;
        (* A delta route reads only Qc's relations.  Conflict sets are
           subsets of Q(D) computed from Qc's relations, and the valid
           packages depend on Q(D) and on the verdicts.  None depends on
           anything else the update can change (the index key re-checks
           the size bound, which may move with |D|). *)
        let keep_route = function
          | Delta _ -> keep_compat
          | Sets _ -> keep_cands && keep_compat
        in
        (match owned inst (Atomic.get m.compat) with
        | Some r when keep_route r.route ->
            Atomic.set memo.compat (Resolved r);
            Observe.bump c_compat_kept
        | Some _ | None -> ());
        if keep_cands && keep_compat && m.valid <> None then begin
          memo.valid <- m.valid;
          Observe.bump c_valid_kept
        end);
    { inst with db = db'; memo }
  end

(* Whether a value already occurs in the database, answered only from
   count tables relations have actually built ([None] = unknown, treated
   as a possible domain change — conservative but free). *)
let value_known inst v =
  List.exists
    (fun r -> Relation.counts_mem r v = Some true)
    (Database.relations inst.db)

let insert_tuple inst name tup =
  let adom_preserved = List.for_all (value_known inst) (Tuple.to_list tup) in
  update_db ~adom_preserved inst (Database.insert_tuple name tup inst.db)

let delete_tuple inst name tup =
  (* The domain survives the deletion if every value of the tuple also
     occurs in some other relation (occurrences inside [name] might all be
     this tuple's own). *)
  let survives v =
    List.exists
      (fun r ->
        (Relation.schema r).Schema.name <> name
        && Relation.counts_mem r v = Some true)
      (Database.relations inst.db)
  in
  let adom_preserved = List.for_all survives (Tuple.to_list tup) in
  update_db ~adom_preserved inst (Database.delete_tuple name tup inst.db)
