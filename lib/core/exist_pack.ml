module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Subset = Solvers.Bnb.Subset

let c_searches = Observe.counter "oracle.searches"
let c_nodes = Observe.counter "oracle.nodes"
let c_prunes = Observe.counter "oracle.prunes"
let c_validated = Observe.counter "oracle.validated"
let t_search = Observe.timer "oracle.search"

let tick = Solvers.Bnb.Tick.make ~counter:c_nodes ~site:"oracle.node" ()

type ctx = {
  inst : Instance.t;
  cands_rel : Relation.t;
  cands : Tuple.t array;
  cands_list : Tuple.t list;
      (* materialized once: [Frp] asks for the list repeatedly per search *)
  max_size : int;
  index_size : int;  (* [max_size] capped at |Q(D)|: the index's key *)
  space : (Package.t, Tuple.t) Subset.space;
      (* the {!Solvers.Bnb.Subset} instantiation: subsets of [cands] up to
         [max_size], certified pruning in [child] *)
}

(* A cost declared monotone, or an additive one whose every candidate
   contributes [>= 0], never decreases along a branch. *)
let cost_prunes inst cands =
  Rating.is_monotone inst.Instance.cost
  ||
  match Rating.additive inst.Instance.cost with
  | Some f -> Array.for_all (fun t -> f t >= 0.) cands
  | None -> false

(* A negation-free Qc is monotone: once Qc(N, D) is non-empty it stays so
   for every superset of N, so an incompatible package has no compatible
   extension. *)
let negation_free = function
  | Qlang.Query.Dl p ->
      List.for_all
        (fun r ->
          List.for_all
            (function Qlang.Datalog.Neg _ -> false | _ -> true)
            r.Qlang.Datalog.body)
        p.Qlang.Datalog.rules
  | q -> (
      match Qlang.Query.language q with
      | L_sp | L_cq | L_ucq | L_efo_plus -> true
      | L_fo | L_datalog_nr | L_datalog -> false)

let compat_prunes inst =
  match inst.Instance.compat with
  | Instance.Compat_query q -> negation_free q
  | Instance.No_constraint | Instance.Compat_fn _ -> false

let ctx inst =
  let cands_rel = Instance.candidates inst in
  let cands = Relation.to_array cands_rel in
  let max_size = Instance.max_package_size inst in
  let prune_cost = cost_prunes inst cands in
  let prune_compat = compat_prunes inst in
  let budget = inst.Instance.budget in
  let cost pkg = Rating.eval inst.Instance.cost pkg in
  let space =
    {
      Subset.items = cands;
      max_size;
      size = Package.size;
      skip = (fun pkg t -> Package.mem t pkg);
      child =
        (fun pkg t ->
          (* Both cuts are certified: every package of the cut sub-tree
             exceeds the budget, or is incompatible. *)
          let pkg' = Package.add t pkg in
          if
            (prune_cost && cost pkg' > budget)
            || (prune_compat && not (Validity.compatible inst pkg'))
          then begin
            Observe.bump c_prunes;
            None
          end
          else Some pkg');
      tick;
    }
  in
  {
    inst;
    cands_rel;
    cands;
    cands_list = Array.to_list cands;
    max_size;
    index_size = min max_size (Array.length cands);
    space;
  }

let instance c = c.inst
let candidates c = c.cands_list
let candidate_count c = Array.length c.cands

(* First accepted package in canonical (size-lexicographic DFS) order. *)
let find_accepted c ~base accept =
  if Package.size base > c.max_size then None
  else begin
    Observe.bump c_searches;
    Observe.span t_search @@ fun () -> Subset.find_first c.space ~base ~accept
  end

(* ------------------------------------------------------------------ *)
(* The valid-package index                                             *)
(*                                                                     *)
(* The first walk over the valid packages that runs to completion      *)
(* stores them on the instance (Instance.valid_index); later calls     *)
(* replay the index instead of walking.  A replay ticks once per entry *)
(* it reads, so budgets, fuel and the [oracle.node] site still see     *)
(* work, and it visits packages in the walk's canonical order, so      *)
(* every witness is the one the walk would return.                     *)
(* ------------------------------------------------------------------ *)

let valid c pkg =
  Observe.bump c_validated;
  Rating.eval c.inst.Instance.cost pkg <= c.inst.Instance.budget
  && Validity.compatible c.inst pkg

let index c = Instance.valid_index c.inst ~max_size:c.index_size

let build c pkgs =
  Valid_index.build ~items:c.cands
    ~value:(Rating.eval c.inst.Instance.value)
    pkgs

(* Store what a completed walk found.  A fault here (or anywhere before)
   leaves the memo without an index. *)
let remember c ~count pkgs =
  Robust.Fault.hit "memo.valid";
  Instance.store_valid_index c.inst ~max_size:c.index_size ~count (fun () ->
      build c (pkgs ()))

(* Every valid package in canonical order; [visit] sees each one as it
   is found. *)
let walk_all ?(visit = ignore) c =
  let keep pkg = valid c pkg && (visit pkg; true) in
  let pkgs = Subset.collect c.space ~base:Package.empty ~keep in
  (pkgs, remember c ~count:(List.length pkgs) (fun () -> pkgs))

let valid_index ?visit c =
  match index c with
  | Some ix -> ix
  | None -> (
      match walk_all ?visit c with
      | _, Some ix -> ix
      | pkgs, None -> build c pkgs (* past the cap: answer, but keep nothing *))

let read () = Solvers.Bnb.Tick.visit tick

(* The first canonical position satisfying [f], one tick per entry read. *)
let replay_find ix f =
  let n = Valid_index.length ix in
  let rec go i =
    if i >= n then None
    else begin
      read ();
      if f i then Some i else go (i + 1)
    end
  in
  go 0

let search c ?rating ?containing ?excluded:(excl = []) ?(strict = false)
    ~bound () =
  let rated v = if strict then v > bound else v >= bound in
  let excluded pkg = List.exists (Package.equal pkg) excl in
  match (containing, index c) with
  | None, Some ix ->
      Observe.bump c_searches;
      (* The packages rated past the bound lead the ranking.  When all of
         them are excluded there is no witness, and no need to replay the
         canonical order to find the first one. *)
      let none_left () =
        Option.is_none rating
        &&
        let above = Valid_index.count_rated ~read ix ~strict ~bound in
        above <= List.length excl
        && List.for_all
             (fun r -> excluded (Valid_index.package ix (Valid_index.ranked ix r)))
             (List.init above Fun.id)
      in
      if none_left () then None
      else
        let value_at =
          match rating with
          | Some f -> fun i -> f (Valid_index.package ix i)
          | None -> Valid_index.value ix
        in
        Option.map (Valid_index.package ix)
          (replay_find ix (fun i ->
               rated (value_at i) && not (excluded (Valid_index.package ix i))))
  | _ ->
      let value =
        match rating with
        | Some f -> f
        | None -> Rating.eval c.inst.Instance.value
      in
      let base = match containing with Some b -> b | None -> Package.empty in
      if not (Package.subset_of_relation base c.cands_rel) then None
      else
        let accept pkg =
          Observe.bump c_validated;
          (match containing with
          | Some b -> Package.strict_superset b pkg
          | None -> true)
          && (not (excluded pkg))
          && Rating.eval c.inst.Instance.cost pkg <= c.inst.Instance.budget
          && rated (value pkg)
          && Validity.compatible c.inst pkg
        in
        find_accepted c ~base accept

let iter_valid c f =
  match index c with
  | Some ix ->
      ignore
        (replay_find ix (fun i ->
             f (Valid_index.package ix i);
             false))
  | None ->
      (* Keep what the walk finds, up to the cap, for the index. *)
      let found = ref [] and count = ref 0 in
      Subset.enumerate c.space ~base:Package.empty (fun pkg ->
          if valid c pkg then begin
            incr count;
            found := if !count > Instance.compat_memo_cap then [] else pkg :: !found;
            f pkg
          end);
      ignore (remember c ~count:!count (fun () -> List.rev !found))

let all_valid c =
  match index c with
  | Some ix ->
      List.init (Valid_index.length ix) (fun i ->
          read ();
          Valid_index.package ix i)
  | None -> fst (walk_all c)

exception Enough

let find_k_distinct ?(strict = false) ~bound ~k c =
  if k <= 0 then Some []
  else begin
    let rated v = if strict then v > bound else v >= bound in
    let found = ref [] and count = ref 0 in
    let take pkg =
      found := pkg :: !found;
      incr count;
      !count >= k
    in
    (match index c with
    | Some ix ->
        ignore
          (replay_find ix (fun i ->
               rated (Valid_index.value ix i) && take (Valid_index.package ix i)))
    | None -> (
        let value = Rating.eval c.inst.Instance.value in
        try iter_valid c (fun pkg -> if rated (value pkg) && take pkg then raise Enough)
        with Enough -> ()));
    if !count >= k then Some !found else None
  end

(* The valid packages by val() descending, ties by [Package.compare]. *)
let ranked_of ix =
  let n = Valid_index.length ix in
  let rec from r () =
    if r >= n then Seq.Nil
    else begin
      read ();
      Seq.Cons (Valid_index.package ix (Valid_index.ranked ix r), from (r + 1))
    end
  in
  from 0

let ranked c =
  let ix = lazy (valid_index c) in
  fun () -> ranked_of (Lazy.force ix) ()

let topk ?visit c ~k =
  let ix = valid_index ?visit c in
  if Valid_index.length ix < k then None
  else Some (List.of_seq (Seq.take (max 0 k) (ranked_of ix)))

let count ?visit ?(strict = false) ~bound c =
  Valid_index.count_rated ~read (valid_index ?visit c) ~strict ~bound

let kth_value c ~k =
  if k < 1 then invalid_arg "Exist_pack.kth_value: k < 1";
  let ix = valid_index c in
  if k > Valid_index.length ix then None
  else begin
    read ();
    Some (Valid_index.value ix (Valid_index.ranked ix (k - 1)))
  end
