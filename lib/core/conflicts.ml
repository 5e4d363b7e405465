module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema
module Ast = Qlang.Ast
module Containment = Qlang.Containment

let c_builds = Observe.counter "compat.conflict_builds"
let c_sets = Observe.counter "compat.conflict_sets"
let c_checks = Observe.counter "compat.conflict_checks"
let c_fallbacks = Observe.counter "compat.conflict_fallbacks"

module Tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = {
  ids : int Tbl.t;  (* Q(D)'s tuples, numbered *)
  by_least : int array list array;
      (* each set, as sorted ids, under its least member: a set inside N
         has its least member in N, so one index entry per set suffices *)
  always : bool;  (* the family holds the empty set *)
}

(* The disjuncts of a CQ/UCQ constraint the route can answer, or [None].
   Adom-sensitive constraints are out: the adom of D ⊕ N is not the adom
   of D ⊕ Q(D) the sets are computed over. *)
let route db qc =
  match qc with
  | Qlang.Query.Fo q -> (
      match Qlang.Query.language qc with
      | (L_cq | L_ucq) when not (Qlang.Query.adom_sensitive db qc) ->
          Some
            (List.map
               (fun d -> Containment.of_query { q with body = d })
               (Qlang.Plan.ucq_disjuncts q.body))
      | _ -> None)
  | Qlang.Query.Dl _ | Identity _ | Empty_query -> None

(* One disjunct's sets: evaluate [CS(vars of the RQ atoms) := ∃ rest. body]
   over D ⊕ Q(D) and substitute each answer row into the RQ atoms.  A
   disjunct without RQ atoms has a nullary CS, whose one row (when the
   disjunct holds over D) yields the empty set. *)
let disjunct_sets db' ~rel (cq : Containment.cq) emit =
  let rq = List.filter (fun (a : Ast.atom) -> a.rel = rel) cq.cq_atoms in
  let vars =
    List.sort_uniq String.compare
      (List.concat_map (fun (a : Ast.atom) -> List.concat_map Ast.term_vars a.args) rq)
  in
  let pos v = Option.get (List.find_index (String.equal v) vars) in
  let images =
    List.map
      (fun (a : Ast.atom) ->
        Array.of_list
          (List.map (function Ast.Const c -> Either.Left c | Var v -> Right (pos v)) a.args))
      rq
  in
  let cs =
    Containment.to_query ~name:"CS"
      { cq with cq_head = List.map (fun v -> Ast.Var v) vars }
  in
  Relation.iter
    (fun row ->
      emit
        (List.map
           (Array.map (function Either.Left c -> c | Right i -> row.(i)))
           images))
    (Qlang.Engine.eval db' (Qlang.Query.Fo cs))

exception Past_cap

let fallback () =
  Observe.bump c_fallbacks;
  None

let build ~cap db ~answer qc =
  match route db qc with
  | exception (Invalid_argument _ | Failure _) -> fallback ()
  | None -> fallback ()
  | Some cqs -> (
      Robust.Fault.hit "memo.compat";
      let answer = answer () in
      let rel = (Relation.schema answer).Schema.name in
      let items = Relation.to_array answer in
      let ids = Tbl.create (Array.length items) in
      Array.iteri (fun i tup -> Tbl.replace ids tup i) items;
      let seen = Hashtbl.create 64 in
      let by_least = Array.make (Array.length items) [] in
      let always = ref false in
      let add tuples =
        let set =
          Array.of_list (List.sort_uniq Int.compare (List.map (Tbl.find ids) tuples))
        in
        if not (Hashtbl.mem seen set) then begin
          if Hashtbl.length seen >= cap then raise_notrace Past_cap;
          Hashtbl.add seen set ();
          if Array.length set = 0 then always := true
          else by_least.(set.(0)) <- set :: by_least.(set.(0))
        end
      in
      let db' = Database.add answer db in
      match List.iter (fun cq -> disjunct_sets db' ~rel cq add) cqs with
      | exception (Past_cap | Invalid_argument _ | Failure _) -> fallback ()
      | () ->
          Observe.bump c_builds;
          Observe.add c_sets (Hashtbl.length seen);
          Some { ids; by_least; always = !always })

exception Outside

(* Every member of N is tested, not just the newest: a search may start
   from an incompatible base. *)
let compatible t n =
  let id tup =
    match Tbl.find_opt t.ids tup with Some i -> i | None -> raise_notrace Outside
  in
  match List.map id (Package.to_list n) with
  | exception Outside -> fallback ()
  | ids ->
      Observe.bump c_checks;
      let inside set = Array.for_all (fun j -> List.mem j ids) set in
      Some
        (not
           (t.always || List.exists (fun i -> List.exists inside t.by_least.(i)) ids))
