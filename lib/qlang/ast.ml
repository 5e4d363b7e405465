type term =
  | Var of string
  | Const of Relational.Value.t

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type atom = {
  rel : string;
  args : term list;
}

type formula =
  | True
  | False
  | Atom of atom
  | Cmp of cmp * term * term
  | Dist of string * term * term * float
  | And of formula * formula
  | Or of formula * formula
  | Not of formula
  | Exists of string list * formula
  | Forall of string list * formula

type fo_query = {
  name : string;
  head : string list;
  body : formula;
}

let answer_schema q =
  let seen = Hashtbl.create 8 in
  let attrs =
    List.map
      (fun v ->
        match Hashtbl.find_opt seen v with
        | None ->
            Hashtbl.add seen v 1;
            v
        | Some n ->
            Hashtbl.replace seen v (n + 1);
            v ^ "#" ^ string_of_int n)
      q.head
  in
  Relational.Schema.make q.name attrs

let eval_cmp op a b =
  let c = Relational.Value.compare a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let negate_cmp = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let term_vars = function Var v -> [ v ] | Const _ -> []

module Sset = Set.Make (String)

module Vset = Set.Make (struct
  type t = Relational.Value.t

  let compare = Relational.Value.compare
end)

let free_vars f =
  let rec go bound acc = function
    | True | False -> acc
    | Atom { args; _ } ->
        List.fold_left
          (fun acc t ->
            match t with
            | Var v when not (Sset.mem v bound) -> Sset.add v acc
            | Var _ | Const _ -> acc)
          acc args
    | Cmp (_, t1, t2) | Dist (_, t1, t2, _) ->
        List.fold_left
          (fun acc t ->
            match t with
            | Var v when not (Sset.mem v bound) -> Sset.add v acc
            | Var _ | Const _ -> acc)
          acc [ t1; t2 ]
    | And (f1, f2) | Or (f1, f2) -> go bound (go bound acc f1) f2
    | Not f -> go bound acc f
    | Exists (vs, f) | Forall (vs, f) ->
        go (List.fold_left (fun b v -> Sset.add v b) bound vs) acc f
  in
  Sset.elements (go Sset.empty Sset.empty f)

let all_constants f =
  let add_term acc = function Const v -> Vset.add v acc | Var _ -> acc in
  let rec go acc = function
    | True | False -> acc
    | Atom { args; _ } -> List.fold_left add_term acc args
    | Cmp (_, t1, t2) | Dist (_, t1, t2, _) -> add_term (add_term acc t1) t2
    | And (f1, f2) | Or (f1, f2) -> go (go acc f1) f2
    | Not f | Exists (_, f) | Forall (_, f) -> go acc f
  in
  Vset.elements (go Vset.empty f)

let relations_used f =
  let rec go acc = function
    | True | False | Cmp _ | Dist _ -> acc
    | Atom { rel; _ } -> Sset.add rel acc
    | And (f1, f2) | Or (f1, f2) -> go (go acc f1) f2
    | Not f | Exists (_, f) | Forall (_, f) -> go acc f
  in
  Sset.elements (go Sset.empty f)

let rec conjuncts = function
  | True -> []
  | And (f1, f2) -> conjuncts f1 @ conjuncts f2
  | f -> [ f ]

let conj = function
  | [] -> True
  | f :: fs -> List.fold_left (fun acc g -> And (acc, g)) f fs

let rec disjuncts = function
  | False -> []
  | Or (f1, f2) -> disjuncts f1 @ disjuncts f2
  | f -> [ f ]

let disj = function
  | [] -> False
  | f :: fs -> List.fold_left (fun acc g -> Or (acc, g)) f fs

let exists vs f = if vs = [] then f else Exists (vs, f)
let forall vs f = if vs = [] then f else Forall (vs, f)

let subst_term sub = function
  | Var v as t -> ( match List.assoc_opt v sub with Some t' -> t' | None -> t)
  | Const _ as t -> t

let rec subst sub f =
  match f with
  | True | False -> f
  | Atom a -> Atom { a with args = List.map (subst_term sub) a.args }
  | Cmp (op, t1, t2) -> Cmp (op, subst_term sub t1, subst_term sub t2)
  | Dist (d, t1, t2, b) -> Dist (d, subst_term sub t1, subst_term sub t2, b)
  | And (f1, f2) -> And (subst sub f1, subst sub f2)
  | Or (f1, f2) -> Or (subst sub f1, subst sub f2)
  | Not f -> Not (subst sub f)
  | Exists (vs, f) ->
      let sub' = List.filter (fun (v, _) -> not (List.mem v vs)) sub in
      Exists (vs, subst sub' f)
  | Forall (vs, f) ->
      let sub' = List.filter (fun (v, _) -> not (List.mem v vs)) sub in
      Forall (vs, subst sub' f)

let rec rename_rels ren f =
  match f with
  | True | False | Cmp _ | Dist _ -> f
  | Atom a -> (
      match List.assoc_opt a.rel ren with
      | Some r' -> Atom { a with rel = r' }
      | None -> f)
  | And (f1, f2) -> And (rename_rels ren f1, rename_rels ren f2)
  | Or (f1, f2) -> Or (rename_rels ren f1, rename_rels ren f2)
  | Not f -> Not (rename_rels ren f)
  | Exists (vs, f) -> Exists (vs, rename_rels ren f)
  | Forall (vs, f) -> Forall (vs, rename_rels ren f)

let fresh_counter = ref 0

let freshen f =
  let fresh () =
    incr fresh_counter;
    "_v" ^ string_of_int !fresh_counter
  in
  let rec go sub f =
    match f with
    | True | False -> f
    | Atom _ | Cmp _ | Dist _ -> subst sub f
    | And (f1, f2) -> And (go sub f1, go sub f2)
    | Or (f1, f2) -> Or (go sub f1, go sub f2)
    | Not f -> Not (go sub f)
    | Exists (vs, f) ->
        let vs' = List.map (fun _ -> fresh ()) vs in
        let sub' = List.map2 (fun v v' -> (v, Var v')) vs vs' @ sub in
        Exists (vs', go sub' f)
    | Forall (vs, f) ->
        let vs' = List.map (fun _ -> fresh ()) vs in
        let sub' = List.map2 (fun v v' -> (v, Var v')) vs vs' @ sub in
        Forall (vs', go sub' f)
  in
  go [] f

let compare_formula = Stdlib.compare
let equal_formula a b = compare_formula a b = 0
