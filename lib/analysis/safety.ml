open Qlang.Ast
module Sset = Set.Make (String)

let term_var = function Var v -> Some v | Const _ -> None

(* Safe-range analysis.  Conjunctions are flattened so that [x = y]
   equalities propagate limitedness across all sibling conjuncts, to a
   fixpoint. *)
let rec limited f =
  match f with
  | True | False -> Sset.empty
  | Atom { args; _ } ->
      List.fold_left
        (fun acc t ->
          match term_var t with Some v -> Sset.add v acc | None -> acc)
        Sset.empty args
  | Cmp (Eq, Var v, Const _) | Cmp (Eq, Const _, Var v) -> Sset.singleton v
  | Cmp _ | Dist _ -> Sset.empty
  | And _ ->
      let cs = conjuncts f in
      let base =
        List.fold_left (fun acc c -> Sset.union acc (limited c)) Sset.empty cs
      in
      let eqs =
        List.filter_map
          (function Cmp (Eq, Var x, Var y) -> Some (x, y) | _ -> None)
          cs
      in
      let rec fix s =
        let s' =
          List.fold_left
            (fun s (x, y) ->
              if Sset.mem x s then Sset.add y s
              else if Sset.mem y s then Sset.add x s
              else s)
            s eqs
        in
        if Sset.equal s s' then s else fix s'
      in
      fix base
  | Or (f1, f2) -> Sset.inter (limited f1) (limited f2)
  | Not _ -> Sset.empty
  | Exists (vs, f) ->
      Sset.diff (limited f) (Sset.of_list vs)
  | Forall _ -> Sset.empty

let limited_vars f = Sset.elements (limited f)

let ctx f = Qlang.Pretty.formula_to_string f

let check_formula f =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let rec go f =
    match f with
    | True | False | Atom _ | Cmp _ | Dist _ -> ()
    | And _ ->
        (* A negation whose free variables the positive sibling conjuncts
           limit is guarded: it plans as an anti-join, with no active
           domain involved. *)
        let cs = conjuncts f in
        let lim =
          limited
            (conj (List.filter (function Not _ -> false | _ -> true) cs))
        in
        List.iter
          (function
            | Not g as c ->
                if not (Sset.subset (Sset.of_list (free_vars g)) lim) then
                  negation c;
                go g
            | c -> go c)
          cs
    | Or (f1, f2) ->
        go f1;
        go f2
    | Not g ->
        negation f;
        go g
    | Exists (vs, g) ->
        let lim = limited g in
        List.iter
          (fun v ->
            if not (Sset.mem v lim) then
              add
                (Diagnostic.warning ~context:(ctx f) "A002"
                   (Printf.sprintf
                      "existential variable %s is not limited by a positive \
                       atom; it ranges over the whole active domain"
                      v)))
          vs;
        go g
    | Forall (vs, g) ->
        add
          (Diagnostic.warning ~context:(ctx f) "A003"
             (Printf.sprintf
                "universal quantifier over %s is domain-dependent; it is \
                 evaluated against the active domain"
                (String.concat ", " vs)));
        go g
  and negation f =
    add
      (Diagnostic.warning ~context:(ctx f) "A004"
         "negated subformula is domain-dependent: the positive conjuncts \
          beside it do not bind all its free variables, so it is evaluated \
          by complementation over the active domain")
  in
  go f;
  List.rev !diags

let check_query (q : fo_query) =
  let lim = limited q.body in
  let free = Sset.of_list (free_vars q.body) in
  let bad v =
    Diagnostic.error
      ~context:(Qlang.Pretty.query_to_string q)
      "A001"
      (Printf.sprintf
         "variable %s of query %s is not limited by a positive atom; the \
          query is unsafe (domain-dependent)"
         v q.name)
  in
  let head_diags =
    List.filter_map
      (fun v -> if Sset.mem v lim then None else Some (bad v))
      q.head
  in
  let free_diags =
    Sset.fold
      (fun v acc ->
        if Sset.mem v lim || List.mem v q.head then acc else bad v :: acc)
      free []
  in
  head_diags @ List.rev free_diags @ check_formula q.body
