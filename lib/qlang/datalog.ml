open Ast
module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema

type literal =
  | Rel of atom
  | Neg of atom
  | Builtin of cmp * term * term

type rule = {
  head : atom;
  body : literal list;
}

type program = {
  rules : rule list;
  answer : string;
}

let rule head body = { head; body }

module Sset = Set.Make (String)
module Smap = Map.Make (String)

let idb_predicates p =
  List.fold_left (fun s r -> Sset.add r.head.rel s) Sset.empty p.rules
  |> Sset.elements

let predicate_arity p name =
  let from_atom a = if a.rel = name then Some (List.length a.args) else None in
  let rec first = function
    | [] -> None
    | r :: rest -> (
        match from_atom r.head with
        | Some n -> Some n
        | None -> (
            let in_body =
              List.find_map
                (function Rel a | Neg a -> from_atom a | Builtin _ -> None)
                r.body
            in
            match in_body with Some n -> Some n | None -> first rest))
  in
  first p.rules

(* Edges [(p', p, negated)] whenever predicate [p'] occurs (positively or
   under [not]) in the body of a rule with head [p]. *)
let signed_dependency_graph p =
  List.concat_map
    (fun r ->
      List.filter_map
        (function
          | Rel a -> Some (a.rel, r.head.rel, false)
          | Neg a -> Some (a.rel, r.head.rel, true)
          | Builtin _ -> None)
        r.body)
    p.rules
  |> List.sort_uniq compare

let dependency_graph p =
  List.map (fun (a, b, _) -> (a, b)) (signed_dependency_graph p)
  |> List.sort_uniq compare

(* Stratification (Apt–Blair–Walker): the least assignment of strata such
   that positive dependencies stay within a stratum or go up, and negative
   dependencies go strictly up.  A program is stratifiable iff no negative
   edge lies on a dependency cycle; then the least strata are computed by
   iterating the two constraints to a fixpoint (bounded by the number of
   predicates). *)
let stratify p =
  let edges = signed_dependency_graph p in
  let nodes =
    List.fold_left
      (fun s (a, b, _) -> Sset.add a (Sset.add b s))
      (List.fold_left (fun s r -> Sset.add r.head.rel s) Sset.empty p.rules)
      edges
    |> Sset.elements
  in
  let n = List.length nodes in
  let stratum = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace stratum v 0) nodes;
  let get v = Option.value ~default:0 (Hashtbl.find_opt stratum v) in
  let changed = ref true in
  let rounds = ref 0 in
  let overflow = ref None in
  while !changed && !overflow = None do
    changed := false;
    incr rounds;
    List.iter
      (fun (src, dst, negated) ->
        let required = get src + if negated then 1 else 0 in
        if get dst < required then begin
          Hashtbl.replace stratum dst required;
          if required > n then overflow := Some (src, dst);
          changed := true
        end)
      edges
  done;
  match !overflow with
  | Some (src, dst) ->
      Error
        (Printf.sprintf
           "program is not stratifiable: predicate %s depends negatively on \
            itself (through the cycle reaching %s)"
           dst src)
  | None -> Ok (List.map (fun v -> (v, get v)) nodes)

let strata_count p =
  match stratify p with
  | Error _ -> None
  | Ok strata ->
      Some (1 + List.fold_left (fun acc (_, s) -> max acc s) 0 strata)

(* SCC refinement of the stratification: the ABW strata split only at
   negation, so a negation-free program is one big stratum even when its
   dependency graph falls into independent components.  Refining to the
   condensation of the IDB dependency graph — each stratum one strongly
   connected component, in topological order — evaluates exactly the same
   least fixpoint (every positive dependency still points to a finished or
   same-stratum predicate) but keeps each semi-naive iteration to one
   recursive component, and lets the differential evaluator freeze
   components that provably cannot change.  Negative edges never sit
   inside an SCC of a stratifiable program, so the layering keeps them
   strictly increasing, as ABW requires. *)
let refined_strata p =
  match stratify p with
  | Error _ as e -> e
  | Ok _ ->
      let idbs = idb_predicates p in
      let edges =
        List.filter
          (fun (a, b) -> List.mem a idbs && List.mem b idbs)
          (dependency_graph p)
      in
      let succs v =
        List.filter_map (fun (a, b) -> if a = v then Some b else None) edges
      in
      (* Tarjan; component ids come out in reverse topological order
         (everything a predicate depends on gets a higher id). *)
      let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
      let on_stack = Hashtbl.create 16 in
      let stack = ref [] and next = ref 0 in
      let comp = Hashtbl.create 16 and ncomp = ref 0 in
      let rec strong v =
        Hashtbl.replace index v !next;
        Hashtbl.replace low v !next;
        incr next;
        stack := v :: !stack;
        Hashtbl.replace on_stack v true;
        List.iter
          (fun w ->
            if not (Hashtbl.mem index w) then begin
              strong w;
              Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
            end
            else if Hashtbl.find_opt on_stack w = Some true then
              Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
          (succs v);
        if Hashtbl.find low v = Hashtbl.find index v then begin
          let c = !ncomp in
          incr ncomp;
          let rec pop () =
            match !stack with
            | [] -> ()
            | w :: rest ->
                stack := rest;
                Hashtbl.replace on_stack w false;
                Hashtbl.replace comp w c;
                if w <> v then pop ()
          in
          pop ()
        end
      in
      List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) idbs;
      (* Longest-path layering of the condensation: dependencies live at
         strictly lower layers, mutual recursion shares one.  Processing
         components in decreasing id order finalizes every predecessor
         before its successors. *)
      let layer = Array.make (max 1 !ncomp) 0 in
      let cedges =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b) ->
               let ca = Hashtbl.find comp a and cb = Hashtbl.find comp b in
               if ca = cb then None else Some (ca, cb))
             edges)
      in
      for c = !ncomp - 1 downto 0 do
        List.iter
          (fun (ca, cb) ->
            if ca = c && layer.(cb) < layer.(c) + 1 then
              layer.(cb) <- layer.(c) + 1)
          cedges
      done;
      Ok (List.map (fun v -> (v, layer.(Hashtbl.find comp v))) idbs)

let check db p =
  let idbs = Sset.of_list (idb_predicates p) in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () =
    if Sset.mem p.answer idbs then Ok ()
    else Error ("answer predicate " ^ p.answer ^ " has no rule")
  in
  let* () =
    match List.find_opt (fun n -> Database.mem db n) (Sset.elements idbs) with
    | Some n -> Error ("IDB predicate " ^ n ^ " collides with an EDB relation")
    | None -> Ok ()
  in
  (* Arity consistency across all occurrences of each predicate. *)
  let arities = Hashtbl.create 16 in
  let record name n =
    match Hashtbl.find_opt arities name with
    | None ->
        Hashtbl.add arities name n;
        Ok ()
    | Some m ->
        if m = n then Ok ()
        else Error (Printf.sprintf "predicate %s used with arities %d and %d" name m n)
  in
  let rec record_all = function
    | [] -> Ok ()
    | r :: rest ->
        let* () = record r.head.rel (List.length r.head.args) in
        let rec body = function
          | [] -> Ok ()
          | (Rel a | Neg a) :: more ->
              let* () = record a.rel (List.length a.args) in
              body more
          | Builtin _ :: more -> body more
        in
        let* () = body r.body in
        record_all rest
  in
  let* () = record_all p.rules in
  (* EDB arities must match the database. *)
  let* () =
    Hashtbl.fold
      (fun name n acc ->
        let* () = acc in
        if Sset.mem name idbs then Ok ()
        else
          match Database.find_opt db name with
          | None -> Error ("unknown EDB relation " ^ name)
          | Some r ->
              if Relation.arity r = n then Ok ()
              else
                Error
                  (Printf.sprintf "EDB relation %s has arity %d, used with %d"
                     name (Relation.arity r) n))
      arities (Ok ())
  in
  (* Safety: every head, built-in and negated-literal variable must be bound
     by a positive relational body literal. *)
  let rec safe = function
    | [] -> Ok ()
    | r :: rest ->
        let positive =
          List.fold_left
            (fun s l ->
              match l with
              | Rel a -> List.fold_left (fun s v -> Sset.add v s) s (List.concat_map term_vars a.args)
              | Neg _ | Builtin _ -> s)
            Sset.empty r.body
        in
        let needed =
          List.concat_map term_vars r.head.args
          @ List.concat_map
              (function
                | Builtin (_, t1, t2) -> term_vars t1 @ term_vars t2
                | Neg a -> List.concat_map term_vars a.args
                | Rel _ -> [])
              r.body
        in
        let* () =
          match List.find_opt (fun v -> not (Sset.mem v positive)) needed with
          | Some v -> Error ("unsafe rule: variable " ^ v ^ " not bound by a positive relational literal")
          | None -> Ok ()
        in
        safe rest
  in
  let* () = safe p.rules in
  match stratify p with
  | Ok _ -> Ok ()
  | Error msg -> Error msg

let is_nonrecursive p =
  let edges = dependency_graph p in
  let nodes =
    List.fold_left (fun s (a, b) -> Sset.add a (Sset.add b s)) Sset.empty edges
  in
  (* DFS cycle detection. *)
  let succs n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let state = Hashtbl.create 16 in
  let rec visit n =
    match Hashtbl.find_opt state n with
    | Some `Done -> true
    | Some `Active -> false
    | None ->
        Hashtbl.add state n `Active;
        let ok = List.for_all visit (succs n) in
        Hashtbl.replace state n `Done;
        ok
  in
  Sset.for_all visit nodes

let idb_schema name arity =
  Schema.make name (List.init arity (fun i -> "a" ^ string_of_int i))

let answer_schema p =
  match predicate_arity p p.answer with
  | Some n -> idb_schema p.answer n
  | None -> invalid_arg ("Datalog.answer_schema: unknown predicate " ^ p.answer)

let program_constants p =
  let of_terms ts =
    List.filter_map (function Const v -> Some v | Var _ -> None) ts
  in
  List.concat_map
    (fun r ->
      of_terms r.head.args
      @ List.concat_map
          (function
            | Rel a | Neg a -> of_terms a.args
            | Builtin (_, t1, t2) -> of_terms [ t1; t2 ])
          r.body)
    p.rules
