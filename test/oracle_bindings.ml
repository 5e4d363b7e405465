module Tuple = Relational.Tuple
module Value = Relational.Value

module Tset = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(* Join keys are hashed with {!Tuple.hash} (computed once per insertion or
   probe by the functorial hash table) and compared with {!Tuple.equal} —
   not with the polymorphic hash/equality on [Value.t array], which
   re-traverses constructor blocks on every probe. *)
module Ttbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = {
  vars : string array;  (* strictly increasing *)
  rows : Tset.t;
}

let vars b = b.vars

let make var_list rows_list =
  let n = List.length var_list in
  let with_pos = List.mapi (fun i v -> (v, i)) var_list in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) with_pos in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> a = b || dup rest
    | [ _ ] | [] -> false
  in
  if dup sorted then invalid_arg "Bindings.make: duplicate variable";
  let perm = Array.of_list (List.map snd sorted) in
  let reorder row =
    if Tuple.arity row <> n then invalid_arg "Bindings.make: arity mismatch";
    Array.map (fun i -> row.(i)) perm
  in
  {
    vars = Array.of_list (List.map fst sorted);
    rows = Tset.of_list (List.map reorder rows_list);
  }

let tt = { vars = [||]; rows = Tset.singleton [||] }
let ff = { vars = [||]; rows = Tset.empty }
let is_satisfiable b = not (Tset.is_empty b.rows)
let cardinal b = Tset.cardinal b.rows
let rows b = Tset.elements b.rows

let assignments b =
  List.map
    (fun row -> Array.to_list (Array.mapi (fun i v -> (b.vars.(i), v)) row))
    (rows b)

(* Positions of [sub] inside [sup]; both sorted.  Raises Not_found if a
   variable of [sub] is missing from [sup]. *)
let positions sup sub =
  Array.map
    (fun v ->
      let rec go i =
        if i = Array.length sup then raise Not_found
        else if sup.(i) = v then i
        else go (i + 1)
      in
      go 0)
    sub

let merge_vars a b =
  let rec go i j acc =
    if i = Array.length a && j = Array.length b then List.rev acc
    else if i = Array.length a then go i (j + 1) (b.(j) :: acc)
    else if j = Array.length b then go (i + 1) j (a.(i) :: acc)
    else
      let c = String.compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1) (a.(i) :: acc)
      else if c < 0 then go (i + 1) j (a.(i) :: acc)
      else go i (j + 1) (b.(j) :: acc)
  in
  Array.of_list (go 0 0 [])

let join a b =
  let shared =
    Array.to_list a.vars |> List.filter (fun v -> Array.exists (( = ) v) b.vars)
  in
  let shared = Array.of_list shared in
  let out_vars = merge_vars a.vars b.vars in
  let pos_a_shared = positions a.vars shared in
  let pos_b_shared = positions b.vars shared in
  (* For each output variable, where to read it from: (side, index). *)
  let out_src =
    Array.map
      (fun v ->
        let rec find arr i =
          if i = Array.length arr then None
          else if arr.(i) = v then Some i
          else find arr (i + 1)
        in
        match find a.vars 0 with
        | Some i -> `A i
        | None -> (
            match find b.vars 0 with
            | Some j -> `B j
            | None -> assert false))
      out_vars
  in
  let key pos row = Array.map (fun i -> row.(i)) pos in
  (* Index the smaller side. *)
  let small, small_pos, big, big_pos, small_is_a =
    if Tset.cardinal a.rows <= Tset.cardinal b.rows then
      (a.rows, pos_a_shared, b.rows, pos_b_shared, true)
    else (b.rows, pos_b_shared, a.rows, pos_a_shared, false)
  in
  let index = Ttbl.create (max 16 (Tset.cardinal small)) in
  Tset.iter
    (fun row ->
      let k = key small_pos row in
      Ttbl.replace index k (row :: (try Ttbl.find index k with Not_found -> [])))
    small;
  let out = ref Tset.empty in
  Tset.iter
    (fun big_row ->
      Robust.Budget.check ();
      let k = key big_pos big_row in
      match Ttbl.find_opt index k with
      | None -> ()
      | Some small_rows ->
          List.iter
            (fun small_row ->
              let ra, rb =
                if small_is_a then (small_row, big_row) else (big_row, small_row)
              in
              let combined =
                Array.map
                  (fun src -> match src with `A i -> ra.(i) | `B j -> rb.(j))
                  out_src
              in
              out := Tset.add combined !out)
            small_rows)
    big;
  { vars = out_vars; rows = !out }

(* Pad with all the missing variables in one pass: enumerate adom^k for the
   k missing columns and merge each combination into each existing row,
   instead of materializing k-1 intermediate binding sets through repeated
   singleton joins. *)
let extend ~adom extra b =
  let missing =
    List.sort_uniq String.compare extra
    |> List.filter (fun v -> not (Array.exists (( = ) v) b.vars))
  in
  match missing with
  | [] -> b
  | _ ->
      let missing = Array.of_list missing in
      let k = Array.length missing in
      let out_vars = merge_vars b.vars missing in
      (* Where each output column reads from: the old row or a fresh slot. *)
      let src =
        Array.map
          (fun v ->
            let rec find arr i =
              if i = Array.length arr then None
              else if arr.(i) = v then Some i
              else find arr (i + 1)
            in
            match find b.vars 0 with
            | Some i -> `Old i
            | None -> (
                match find missing 0 with
                | Some j -> `Fresh j
                | None -> assert false))
          out_vars
      in
      let adom_arr = Array.of_list (Lazy.force adom) in
      let out = ref Tset.empty in
      let fresh = Array.make k (Value.Int 0) in
      let emit row =
        Robust.Budget.check ();
        let merged =
          Array.map
            (fun s -> match s with `Old i -> row.(i) | `Fresh j -> fresh.(j))
            src
        in
        out := Tset.add merged !out
      in
      Tset.iter
        (fun row ->
          let rec fill j =
            if j = k then emit row
            else
              Array.iter
                (fun v ->
                  fresh.(j) <- v;
                  fill (j + 1))
                adom_arr
          in
          fill 0)
        b.rows;
      { vars = out_vars; rows = !out }

let union ~adom a b =
  let all = Array.to_list a.vars @ Array.to_list b.vars in
  let a' = extend ~adom all a and b' = extend ~adom all b in
  { vars = a'.vars; rows = Tset.union a'.rows b'.rows }

let complement ~adom b =
  let n = Array.length b.vars in
  let full = ref Tset.empty in
  let row = Array.make n (Value.Int 0) in
  let rec fill adom_arr i =
    if i = n then begin
      Robust.Budget.check ();
      full := Tset.add (Array.copy row) !full
    end
    else
      Array.iter
        (fun v ->
          row.(i) <- v;
          fill adom_arr (i + 1))
        adom_arr
  in
  if n = 0 then { b with rows = (if Tset.is_empty b.rows then tt.rows else Tset.empty) }
  else begin
    fill (Array.of_list (Lazy.force adom)) 0;
    { b with rows = Tset.diff !full b.rows }
  end

(* The left rows whose restriction to the right's variables is absent from
   the right: guarded negation, [a ∧ ¬b] with [vars b ⊆ vars a], without
   ranging over the active domain. *)
let anti_join a b =
  let pos =
    try positions a.vars b.vars
    with Not_found ->
      invalid_arg "Bindings.anti_join: right side binds a variable the left does not"
  in
  let index = Ttbl.create (max 16 (Tset.cardinal b.rows)) in
  Tset.iter (fun row -> Ttbl.replace index row ()) b.rows;
  {
    a with
    rows =
      Tset.filter
        (fun row ->
          Robust.Budget.check ();
          not (Ttbl.mem index (Array.map (fun i -> row.(i)) pos)))
        a.rows;
  }

let project keep b =
  let keep =
    List.sort_uniq String.compare keep
    |> List.filter (fun v -> Array.exists (( = ) v) b.vars)
  in
  let keep_arr = Array.of_list keep in
  let pos = positions b.vars keep_arr in
  let rows =
    Tset.fold
      (fun row acc -> Tset.add (Array.map (fun i -> row.(i)) pos) acc)
      b.rows Tset.empty
  in
  { vars = keep_arr; rows }

let filter pred b =
  let lookup row v =
    let rec go i =
      if i = Array.length b.vars then raise Not_found
      else if b.vars.(i) = v then row.(i)
      else go (i + 1)
    in
    go 0
  in
  { b with rows = Tset.filter (fun row -> pred (lookup row)) b.rows }

let to_relation ~adom sch ~head b =
  let head_vars =
    List.concat_map (function Qlang.Ast.Var v -> [ v ] | Qlang.Ast.Const _ -> []) head
  in
  let b = extend ~adom head_vars b in
  let extract row =
    Array.of_list
      (List.map
         (function
           | Qlang.Ast.Const v -> v
           | Qlang.Ast.Var v ->
               let rec go i =
                 if i = Array.length b.vars then
                   invalid_arg ("Bindings.to_relation: unbound head variable " ^ v)
                 else if b.vars.(i) = v then row.(i)
                 else go (i + 1)
               in
               go 0)
         head)
  in
  Relational.Relation.of_list sch (List.map extract (rows b))
