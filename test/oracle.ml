open Qlang
open Ast
module Bindings = Oracle_bindings
module Value = Relational.Value
module Relation = Relational.Relation
module Database = Relational.Database

module Vset = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

let adom_of db consts =
  let s = Vset.of_list (Database.active_domain db) in
  Vset.elements (List.fold_left (fun s v -> Vset.add v s) s consts)

let active_domain db f = adom_of db (all_constants f)

let lookup_relation db name =
  match Database.find_opt db name with
  | Some r -> r
  | None -> failwith ("Oracle: unknown relation " ^ name)

(* Satisfying assignments of an atom: match each database tuple against the
   argument pattern (constants must coincide, repeated variables must agree). *)
let eval_atom db { rel; args } =
  let r = lookup_relation db rel in
  let arity = List.length args in
  if Relation.arity r <> arity then
    failwith
      (Printf.sprintf "Oracle: atom %s has arity %d but relation has arity %d"
         rel arity (Relation.arity r));
  let args = Array.of_list args in
  let vars =
    Array.to_list args
    |> List.concat_map (function Var v -> [ v ] | Const _ -> [])
    |> List.sort_uniq String.compare
  in
  let n = List.length vars in
  let var_pos v =
    let rec go i = function
      | [] -> assert false
      | w :: rest -> if w = v then i else go (i + 1) rest
    in
    go 0 vars
  in
  let match_tuple tup =
    let row = Array.make n None in
    let ok = ref true in
    Array.iteri
      (fun i arg ->
        if !ok then
          match arg with
          | Const c -> if not (Value.equal c tup.(i)) then ok := false
          | Var v -> (
              let p = var_pos v in
              match row.(p) with
              | None -> row.(p) <- Some tup.(i)
              | Some prev -> if not (Value.equal prev tup.(i)) then ok := false))
      args;
    if !ok then
      Some (Array.map (function Some v -> v | None -> assert false) row)
    else None
  in
  let rows =
    Relation.fold
      (fun tup acc -> match match_tuple tup with Some r -> r :: acc | None -> acc)
      r []
  in
  Bindings.make vars rows

let eval_builtin ~adom holds2 t1 t2 =
  match t1, t2 with
  | Const a, Const b -> if holds2 a b then Bindings.tt else Bindings.ff
  | Var v, Const c ->
      Bindings.make [ v ]
        (List.filter_map (fun a -> if holds2 a c then Some [| a |] else None) adom)
  | Const c, Var v ->
      Bindings.make [ v ]
        (List.filter_map (fun a -> if holds2 c a then Some [| a |] else None) adom)
  | Var v1, Var v2 when v1 = v2 ->
      Bindings.make [ v1 ]
        (List.filter_map (fun a -> if holds2 a a then Some [| a |] else None) adom)
  | Var v1, Var v2 ->
      let rows =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if holds2 a b then Some [| a; b |] else None)
              adom)
          adom
      in
      (* Bindings.make reorders columns to sorted variable order. *)
      Bindings.make [ v1; v2 ] rows

let eval_formula ?(dist = Dist.empty) db f =
  let adom = active_domain db f in
  let rec go f =
    match f with
    | True -> Bindings.tt
    | False -> Bindings.ff
    | Atom a -> eval_atom db a
    | Cmp (op, t1, t2) -> eval_builtin ~adom (eval_cmp op) t1 t2
    | Dist (name, t1, t2, d) ->
        let fn =
          match Dist.find_opt dist name with
          | Some fn -> fn
          | None -> failwith ("Oracle: unknown distance function " ^ name)
        in
        eval_builtin ~adom (fun a b -> fn a b <= d) t1 t2
    | And (f1, f2) -> Bindings.join (go f1) (go f2)
    | Or (f1, f2) -> Bindings.union ~adom:(lazy adom) (go f1) (go f2)
    | Not f ->
        (* The complement must range over all free variables of f. *)
        let b = Bindings.extend ~adom:(lazy adom) (free_vars f) (go f) in
        Bindings.complement ~adom:(lazy adom) b
    | Exists (vs, f) ->
        let b = go f in
        let keep =
          Array.to_list (Bindings.vars b) |> List.filter (fun v -> not (List.mem v vs))
        in
        Bindings.project keep b
    | Forall (vs, f) -> go (Not (exists vs (Not f)))
  in
  go f

let holds ?dist db f = Bindings.is_satisfiable (eval_formula ?dist db f)

let eval_query ?dist db q =
  let adom = active_domain db q.body in
  let b = eval_formula ?dist db q.body in
  Bindings.to_relation ~adom:(lazy adom) (answer_schema q)
    ~head:(List.map (fun v -> Var v) q.head)
    b

(* One rule body against [db'] (the database extended with the current IDB
   relations), returning the derived head tuples. *)
let eval_rule ~adom db' (r : Datalog.rule) =
  let body =
    conj
      (List.map
         (function
           | Datalog.Rel a -> Atom a
           (* Stratified negation: a negated atom refers to an EDB relation
              or an IDB of a strictly lower stratum, both fully computed in
              [db'] by the time this rule fires, so plain FO complement over
              the active domain is the stratified semantics. *)
           | Datalog.Neg a -> Not (Atom a)
           | Datalog.Builtin (op, t1, t2) -> Cmp (op, t1, t2))
         r.body)
  in
  let b = eval_formula db' body in
  let sch = Datalog.idb_schema r.head.rel (List.length r.head.args) in
  Bindings.to_relation ~adom:(lazy adom) sch ~head:r.head.args b

let eval_program db (p : Datalog.program) =
  let fail msg = failwith ("Oracle.eval_program: " ^ msg) in
  (match Datalog.check db p with Ok () -> () | Error msg -> fail msg);
  let strata = match Datalog.stratify p with Ok s -> s | Error msg -> fail msg in
  let adom = adom_of db (Datalog.program_constants p) in
  let idbs = Datalog.idb_predicates p in
  let stratum n = Option.value ~default:0 (List.assoc_opt n strata) in
  let with_idb db rels = List.fold_left (fun d (_, r) -> Database.add r d) db rels in
  (* The naive fixpoint of one stratum: every round re-fires every rule of
     the stratum against the current IDB extensions until no IDB grows.
     Lower strata are already merged into [db], so negated literals see
     their final extensions. *)
  let eval_stratum db s =
    let rules = List.filter (fun r -> stratum r.Datalog.head.rel = s) p.rules in
    let rec iterate rels =
      let db' = with_idb db rels in
      let rels' =
        List.map
          (fun (name, rel) ->
            let derived =
              List.filter_map
                (fun r ->
                  if r.Datalog.head.rel = name then Some (eval_rule ~adom db' r)
                  else None)
                rules
            in
            (name, List.fold_left Relation.union rel derived))
          rels
      in
      let grew =
        List.exists2
          (fun (_, a) (_, b) -> Relation.cardinal a <> Relation.cardinal b)
          rels rels'
      in
      if grew then iterate rels' else rels'
    in
    iterate
      (List.filter_map
         (fun n ->
           if stratum n = s then
             let k = Option.get (Datalog.predicate_arity p n) in
             Some (n, Relation.empty (Datalog.idb_schema n k))
           else None)
         idbs)
  in
  let top = List.fold_left (fun acc n -> max acc (stratum n)) 0 idbs in
  let rec strata_loop db s =
    if s > top then db else strata_loop (with_idb db (eval_stratum db s)) (s + 1)
  in
  Database.find (strata_loop db 0) p.answer

let eval ?dist db = function
  | Query.Fo q -> eval_query ?dist db q
  | Query.Dl p -> eval_program db p
  | Query.Identity r -> Database.find db r
  | Query.Empty_query -> Relation.empty Query.empty_schema
