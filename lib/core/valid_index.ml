module Tuple = Relational.Tuple

(* Package [i] is the candidates [items.(members.(j))] for [j] in
   [start.(i) .. start.(i + 1) - 1], in increasing candidate order. *)
type t = {
  items : Tuple.t array;
  start : int array;
  members : int array;
  values : float array;
  ranked : int array;
}

let length ix = Array.length ix.values
let value ix i = ix.values.(i)
let ranked ix r = ix.ranked.(r)

let package ix i =
  let acc = ref Package.empty in
  for j = ix.start.(i) to ix.start.(i + 1) - 1 do
    acc := Package.add ix.items.(ix.members.(j)) !acc
  done;
  !acc

(* [items] is sorted by [Tuple.compare] (it is a relation's row array). *)
let index_of items t =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Valid_index.build: item outside the candidates"
    else
      let mid = (lo + hi) / 2 in
      let c = Tuple.compare t items.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length items)

(* Lexicographic order on the member lists, a proper prefix first: with
   [items] sorted this is exactly [Package.compare] on the packages. *)
let compare_members ix a b =
  let ea = ix.start.(a + 1) and eb = ix.start.(b + 1) in
  let rec go i j =
    if i = ea then if j = eb then 0 else -1
    else if j = eb then 1
    else
      let c = Int.compare ix.members.(i) ix.members.(j) in
      if c <> 0 then c else go (i + 1) (j + 1)
  in
  go ix.start.(a) ix.start.(b)

let build ~items ~value pkgs =
  let n = List.length pkgs in
  let lists = List.map Package.to_list pkgs in
  let start = Array.make (n + 1) 0 in
  let members =
    Array.make (List.fold_left (fun acc l -> acc + List.length l) 0 lists) 0
  in
  let values = Array.make n 0. in
  List.iteri
    (fun i (pkg, tuples) ->
      values.(i) <- value pkg;
      let k =
        List.fold_left
          (fun k t ->
            members.(k) <- index_of items t;
            k + 1)
          start.(i) tuples
      in
      start.(i + 1) <- k)
    (List.combine pkgs lists);
  let ix = { items; start; members; values; ranked = Array.init n Fun.id } in
  Array.sort
    (fun a b ->
      let cv = Float.compare values.(b) values.(a) in
      if cv <> 0 then cv else compare_members ix a b)
    ix.ranked;
  ix

(* The ranked values descend, so the packages rated at or above [bound]
   are a prefix of [ranked]: binary-search its length. *)
let count_rated ?(read = ignore) ix ~strict ~bound =
  let above r =
    read ();
    let v = ix.values.(ix.ranked.(r)) in
    if strict then v > bound else v >= bound
  in
  let rec go lo hi = (* above holds below lo, fails from hi on *)
    if lo >= hi then lo
    else
      let mid = lo + ((hi - lo) / 2) in
      if above mid then go (mid + 1) hi else go lo mid
  in
  go 0 (length ix)
