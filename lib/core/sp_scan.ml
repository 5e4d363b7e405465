open Qlang.Ast
module Relation = Relational.Relation
module Tuple = Relational.Tuple

let eval ?(dist = Qlang.Dist.empty) db (q : fo_query) =
  if Qlang.Fragment.classify q.body <> Qlang.Fragment.Sp then
    invalid_arg "Sp_scan.eval: query is not SP";
  let rec strip = function Exists (_, f) -> strip f | f -> f in
  let cs = conjuncts (strip q.body) in
  let atom =
    match List.find_map (function Atom a -> Some a | _ -> None) cs with
    | Some a -> a
    | None -> invalid_arg "Sp_scan.eval: no relation atom"
  in
  let builtins = List.filter (function Atom _ -> false | _ -> true) cs in
  let rel =
    match Relational.Database.find_opt db atom.rel with
    | Some r -> r
    | None -> invalid_arg ("Sp_scan.eval: unknown relation " ^ atom.rel)
  in
  if Relation.arity rel <> List.length atom.args then
    invalid_arg "Sp_scan.eval: atom arity mismatch";
  let args = Array.of_list atom.args in
  (* Bind a tuple against the atom pattern; None on mismatch. *)
  let bind tup =
    let env = Hashtbl.create 8 in
    let ok = ref true in
    Array.iteri
      (fun i arg ->
        if !ok then
          match arg with
          | Const c -> if not (Relational.Value.equal c tup.(i)) then ok := false
          | Var v -> (
              match Hashtbl.find_opt env v with
              | None -> Hashtbl.add env v tup.(i)
              | Some prev ->
                  if not (Relational.Value.equal prev tup.(i)) then ok := false))
      args;
    if !ok then Some env else None
  in
  let term_value env = function
    | Const c -> c
    | Var v -> (
        match Hashtbl.find_opt env v with
        | Some c -> c
        | None -> invalid_arg ("Sp_scan.eval: variable " ^ v ^ " not bound by the atom"))
  in
  let builtin_holds env = function
    | Cmp (op, t1, t2) -> eval_cmp op (term_value env t1) (term_value env t2)
    | Dist (name, t1, t2, d) -> (
        match Qlang.Dist.find_opt dist name with
        | Some fn -> fn (term_value env t1) (term_value env t2) <= d
        | None -> failwith ("Sp_scan.eval: unknown distance function " ^ name))
    | True -> true
    | _ -> invalid_arg "Sp_scan.eval: non-builtin conjunct"
  in
  let sch = Qlang.Ast.answer_schema q in
  let out =
    Relation.fold
      (fun tup acc ->
        match bind tup with
        | None -> acc
        | Some env ->
            if List.for_all (builtin_holds env) builtins then
              Tuple.of_list
                (List.map (fun v -> term_value env (Var v)) q.head)
              :: acc
            else acc)
      rel []
  in
  Relation.of_list sch out
