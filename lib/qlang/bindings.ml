module Tuple = Relational.Tuple
module Value = Relational.Value

(* Row sets and join keys are hashed with {!Tuple.hash} and compared with
   {!Tuple.equal} — not with the polymorphic hash/equality on
   [Value.t array], which re-traverses constructor blocks on every probe. *)
module Ttbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* Open addressing with linear probing over a power-of-two table, at most
   half full.  Each slot keeps its row's hash, so a probe compares rows
   only on equal hashes and growing never rehashes a row. *)
module Rowset = struct
  type t = {
    mutable hashes : int array;  (* -1 marks an empty slot *)
    mutable keys : Tuple.t array;
    mutable size : int;
  }

  let create n =
    let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
    let cap = pow2 16 in
    { hashes = Array.make cap (-1); keys = Array.make cap [||]; size = 0 }

  let hash row =
    let h = Tuple.hash row in
    (h lxor (h lsr 17)) land max_int

  (* The slot holding [row], or the empty slot where it would go. *)
  let rec probe hashes keys mask h row i =
    let hi = hashes.(i) in
    if hi < 0 || (hi = h && Tuple.equal keys.(i) row) then i
    else probe hashes keys mask h row ((i + 1) land mask)

  let slot s h row =
    let mask = Array.length s.hashes - 1 in
    probe s.hashes s.keys mask h row (h land mask)

  let grow s =
    let hashes = s.hashes and keys = s.keys in
    s.hashes <- Array.make (2 * Array.length hashes) (-1);
    s.keys <- Array.make (2 * Array.length keys) [||];
    Array.iteri
      (fun i h ->
        if h >= 0 then begin
          let j = slot s h keys.(i) in
          s.hashes.(j) <- h;
          s.keys.(j) <- keys.(i)
        end)
      hashes

  let add s row =
    let h = hash row in
    let i = slot s h row in
    if s.hashes.(i) >= 0 then false
    else begin
      s.hashes.(i) <- h;
      s.keys.(i) <- row;
      s.size <- s.size + 1;
      if 2 * s.size > Array.length s.hashes then grow s;
      true
    end

  let mem s row =
    let h = hash row in
    s.hashes.(slot s h row) >= 0
end

type t = {
  vars : string array;  (* strictly increasing *)
  rows : Tuple.t array;  (* columns in [vars] order; no row twice *)
}

let vars b = b.vars

(* The [n] rows of a list accumulated newest-first, oldest first. *)
let array_of_rev n l =
  match l with
  | [] -> [||]
  | r :: _ ->
      let a = Array.make n r in
      List.iteri (fun i r -> a.(n - 1 - i) <- r) l;
      a

(* The rows that pass [keep], in their order. *)
let filter_rows keep rows =
  let n = ref 0 and out = ref [] in
  Array.iter
    (fun r ->
      if keep r then begin
        incr n;
        out := r :: !out
      end)
    rows;
  if !n = Array.length rows then rows else array_of_rev !n !out

(* First occurrences only, in order. *)
let dedup rows =
  if Array.length rows <= 1 then rows
  else
    let seen = Rowset.create (Array.length rows) in
    filter_rows (Rowset.add seen) rows

let strictly_increasing vars =
  let ok = ref true in
  for i = 1 to Array.length vars - 1 do
    if String.compare vars.(i - 1) vars.(i) >= 0 then ok := false
  done;
  !ok

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
  let identity = Array.for_all Fun.id (Array.mapi (fun i j -> i = j) perm) in
  let reorder row =
    if Tuple.arity row <> n then invalid_arg "Bindings.make: arity mismatch";
    if identity then row else Array.map (fun i -> row.(i)) perm
  in
  {
    vars = Array.of_list (List.map fst sorted);
    rows = dedup (Array.of_list (List.map reorder rows_list));
  }

let of_distinct var_list rows =
  let vars = Array.of_list var_list in
  if not (strictly_increasing vars) then
    invalid_arg "Bindings.of_distinct: variables not strictly increasing";
  { vars; rows }

let tt = { vars = [||]; rows = [| [||] |] }
let ff = { vars = [||]; rows = [||] }
let is_satisfiable b = Array.length b.rows > 0
let cardinal b = Array.length b.rows
let rows b = Array.to_list b.rows
let iter f b = Array.iter f b.rows

let assignments b =
  List.map
    (fun row -> Array.to_list (Array.mapi (fun i v -> (b.vars.(i), v)) row))
    (rows b)

let index_of arr v =
  let rec go i =
    if i = Array.length arr then None
    else if arr.(i) = v then Some i
    else go (i + 1)
  in
  go 0

(* Positions of [sub] inside [sup]; both sorted.  Raises Not_found if a
   variable of [sub] is missing from [sup]. *)
let positions sup sub =
  Array.map
    (fun v -> match index_of sup v with Some i -> i | None -> raise Not_found)
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

(* Distinct inputs join to distinct outputs: an output row restricts to
   exactly one row of each side. *)
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
        match index_of a.vars v with
        | Some i -> `A i
        | None -> (
            match index_of b.vars v with Some j -> `B j | None -> assert false))
      out_vars
  in
  let key pos row = Array.map (fun i -> row.(i)) pos in
  (* Index the smaller side. *)
  let small, small_pos, big, big_pos, small_is_a =
    if Array.length a.rows <= Array.length b.rows then
      (a.rows, pos_a_shared, b.rows, pos_b_shared, true)
    else (b.rows, pos_b_shared, a.rows, pos_a_shared, false)
  in
  let index = Ttbl.create (max 16 (Array.length small)) in
  (* Walked backwards so each bucket lists its rows in input order. *)
  for i = Array.length small - 1 downto 0 do
    let row = small.(i) in
    let k = key small_pos row in
    Ttbl.replace index k (row :: (try Ttbl.find index k with Not_found -> []))
  done;
  let n = ref 0 and out = ref [] in
  Array.iter
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
              incr n;
              out :=
                Array.map
                  (fun src -> match src with `A i -> ra.(i) | `B j -> rb.(j))
                  out_src
                :: !out)
            small_rows)
    big;
  { vars = out_vars; rows = array_of_rev !n !out }

(* Pad with all the missing variables in one pass: enumerate adom^k for the
   k missing columns and merge each combination into each existing row,
   instead of materializing k-1 intermediate binding sets through repeated
   singleton joins.  Distinct rows times a duplicate-free domain stay
   distinct. *)
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
            match index_of b.vars v with
            | Some i -> `Old i
            | None -> (
                match index_of missing v with
                | Some j -> `Fresh j
                | None -> assert false))
          out_vars
      in
      let adom_arr = Array.of_list (Lazy.force adom) in
      let n = ref 0 and out = ref [] in
      let fresh = Array.make k (Value.Int 0) in
      let emit row =
        Robust.Budget.check ();
        incr n;
        out :=
          Array.map
            (fun s -> match s with `Old i -> row.(i) | `Fresh j -> fresh.(j))
            src
          :: !out
      in
      Array.iter
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
      { vars = out_vars; rows = array_of_rev !n !out }

(* The left side's rows, then the right side's rows the left lacks. *)
let union ~adom a b =
  let all = Array.to_list a.vars @ Array.to_list b.vars in
  let a' = extend ~adom all a and b' = extend ~adom all b in
  if Array.length a'.rows = 0 then b'
  else if Array.length b'.rows = 0 then a'
  else begin
    let seen = Rowset.create (Array.length a'.rows + Array.length b'.rows) in
    Array.iter (fun r -> ignore (Rowset.add seen r)) a'.rows;
    { a' with rows = Array.append a'.rows (filter_rows (Rowset.add seen) b'.rows) }
  end

let complement ~adom b =
  let n = Array.length b.vars in
  if n = 0 then { b with rows = (if is_satisfiable b then [||] else tt.rows) }
  else begin
    let present = Rowset.create (Array.length b.rows) in
    Array.iter (fun r -> ignore (Rowset.add present r)) b.rows;
    let adom_arr = Array.of_list (Lazy.force adom) in
    let row = Array.make n (Value.Int 0) in
    let k = ref 0 and out = ref [] in
    let rec fill i =
      if i = n then begin
        Robust.Budget.check ();
        if not (Rowset.mem present row) then begin
          incr k;
          out := Array.copy row :: !out
        end
      end
      else
        Array.iter
          (fun v ->
            row.(i) <- v;
            fill (i + 1))
          adom_arr
    in
    fill 0;
    { b with rows = array_of_rev !k !out }
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
  let index = Rowset.create (Array.length b.rows) in
  Array.iter (fun r -> ignore (Rowset.add index r)) b.rows;
  {
    a with
    rows =
      filter_rows
        (fun row ->
          Robust.Budget.check ();
          not (Rowset.mem index (Array.map (fun i -> row.(i)) pos)))
        a.rows;
  }

let project keep b =
  let keep =
    List.sort_uniq String.compare keep
    |> List.filter (fun v -> Array.exists (( = ) v) b.vars)
  in
  let keep_arr = Array.of_list keep in
  if Array.length keep_arr = Array.length b.vars then b
  else
    let pos = positions b.vars keep_arr in
    let narrow row = Array.map (fun i -> row.(i)) pos in
    { vars = keep_arr; rows = dedup (Array.map narrow b.rows) }

let filter keep b = { b with rows = filter_rows keep b.rows }

let head_tuples ~head vars rows =
  let src =
    Array.of_list
      (List.map
         (function
           | Ast.Const v -> `Const v
           | Ast.Var v -> (
               match index_of vars v with
               | Some i -> `Col i
               | None ->
                   invalid_arg ("Bindings.head_tuples: unbound head variable " ^ v)))
         head)
  in
  let passthrough =
    Array.length src = Array.length vars
    && Array.for_all Fun.id
         (Array.mapi (fun i s -> match s with `Col j -> i = j | `Const _ -> false) src)
  in
  if passthrough then rows
  else List.map (fun row -> Array.map (function `Const v -> v | `Col i -> row.(i)) src) rows

let head_rows ~adom ~head b =
  let head_vars =
    List.concat_map (function Ast.Var v -> [ v ] | Ast.Const _ -> []) head
  in
  let b = extend ~adom head_vars b in
  head_tuples ~head b.vars (rows b)
