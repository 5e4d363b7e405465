open Qlang

type level = Pure | Reads_shared | Writes_shared

let level_rank = function Pure -> 0 | Reads_shared -> 1 | Writes_shared -> 2
let level_leq a b = level_rank a <= level_rank b
let level_join a b = if level_leq a b then b else a

let level_to_string = function
  | Pure -> "pure"
  | Reads_shared -> "reads-shared"
  | Writes_shared -> "writes-shared"

type resource =
  | Relation_caches
  | Plan_cache
  | Compat_memo

let resource_to_string = function
  | Relation_caches -> "relation-caches"
  | Plan_cache -> "plan-cache"
  | Compat_memo -> "compat-memo"

(* Each structure guards its own mutation: relation caches are built under
   a per-relation mutex and published immutably, the plan LRU and the
   compatibility memo serialize behind mutexes.  This table is the single place that
   claim is recorded; the effect verdict is only as good as it. *)
let resource_synchronized = function
  | Relation_caches | Plan_cache | Compat_memo -> true

type access = {
  resource : resource;
  level : level;
  synchronized : bool;
}

type verdict =
  | Concurrency_safe
  | Requires_exclusive of string list

let verdict_to_string = function
  | Concurrency_safe -> "ConcurrencySafe"
  | Requires_exclusive rs ->
      Printf.sprintf "RequiresExclusive(%s)" (String.concat ", " rs)

type summary = {
  accesses : access list;
  verdict : verdict;
}

let acc resource level =
  { resource; level; synchronized = resource_synchronized resource }

(* A scan with a constant position builds the by-column index it reads on
   first touch (a synchronized lazy write); the index join likewise builds
   the index it probes, narrowed or not (a narrowed join deduplicates its
   rows in a hash set of its own).  Indexes are keyed by values, so no
   operator touches the interning pool.  Everything else works on binding
   sets already in hand.  [Cached] leaves replay frozen bindings — pure by
   construction. *)
let op_accesses = function
  | Plan.Scan _ | Plan.Index_join _ -> [ acc Relation_caches Writes_shared ]
  | Plan.Tt | Plan.Ff | Plan.Hash_join _ | Plan.Anti_join _ | Plan.Filter _
  | Plan.Builtin _ | Plan.Extend _ | Plan.Project _ | Plan.Union _
  | Plan.Complement _ | Plan.Cached _ ->
      []

let compile_accesses = [ acc Plan_cache Writes_shared ]
let oracle_accesses = [ acc Compat_memo Writes_shared ]

let merge accesses =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt tbl a.resource with
      | None -> Hashtbl.add tbl a.resource a
      | Some prev ->
          Hashtbl.replace tbl a.resource
            {
              resource = a.resource;
              level = level_join prev.level a.level;
              synchronized = prev.synchronized && a.synchronized;
            })
    accesses;
  Hashtbl.fold (fun _ a l -> a :: l) tbl []
  |> List.sort (fun a b ->
         compare (resource_to_string a.resource) (resource_to_string b.resource))

let rec node_accesses n =
  op_accesses n.Plan.op
  @ List.concat_map node_accesses
      (match n.Plan.op with Plan.Cached _ -> [] | _ -> Plan.children n)

let plan_accesses t =
  let nodes =
    match t with
    | Plan.Answer fp ->
        List.concat_map (fun d -> node_accesses d.Plan.d_node) fp.Plan.fp_disjuncts
    | Plan.Fixpoint dp ->
        List.concat_map
          (fun stp ->
            List.concat_map
              (fun rp ->
                node_accesses rp.Plan.rp_full
                @ List.concat_map node_accesses rp.Plan.rp_deltas)
              stp.Plan.st_rules)
          dp.Plan.dp_strata
    | Plan.Identity_plan _ | Plan.Empty_plan _ -> []
  in
  merge (compile_accesses @ nodes)

let verdict accesses =
  let bad =
    List.filter
      (fun a -> a.level = Writes_shared && not a.synchronized)
      (merge accesses)
  in
  match bad with
  | [] -> Concurrency_safe
  | _ -> Requires_exclusive (List.map (fun a -> resource_to_string a.resource) bad)

let summarize t =
  let accesses = plan_accesses t in
  { accesses; verdict = verdict accesses }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>effects: %s" (verdict_to_string s.verdict);
  List.iter
    (fun a ->
      Format.fprintf ppf "@,  %s: %s%s"
        (resource_to_string a.resource)
        (level_to_string a.level)
        (if a.synchronized then " (synchronized)" else " (UNSYNCHRONIZED)"))
    s.accesses;
  Format.fprintf ppf "@]"
