(* An AVL tree as in the standard library's [Map] (sibling heights differ
   by at most 2), wrapped with its key count. *)
type 'a tree =
  | Empty
  | Node of { l : 'a tree; k : Value.t; v : 'a; r : 'a tree; h : int }

type 'a t = { tree : 'a tree; size : int }

let height = function Empty -> 0 | Node n -> n.h

let create l k v r =
  let hl = height l and hr = height r in
  Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let bal l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } -> (
        if height ll >= height lr then create ll lk lv (create lr k v r)
        else
          match lr with
          | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
              create (create ll lk lv lrl) lrk lrv (create lrr k v r)
          | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } -> (
        if height rr >= height rl then create (create l k v rl) rk rv rr
        else
          match rl with
          | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
              create (create l k v rll) rlk rlv (create rlr rk rv rr)
          | Empty -> assert false)
    | Empty -> assert false
  else create l k v r

let rec add_tree k v = function
  | Empty -> Node { l = Empty; k; v; r = Empty; h = 1 }
  | Node n ->
      let c = Value.compare k n.k in
      if c = 0 then Node { n with v }
      else if c < 0 then bal (add_tree k v n.l) n.k n.v n.r
      else bal n.l n.k n.v (add_tree k v n.r)

let rec min_node = function
  | Empty -> None
  | Node { l = Empty; k; v; _ } -> Some (k, v)
  | Node { l; _ } -> min_node l

let rec remove_min = function
  | Empty -> Empty
  | Node { l = Empty; r; _ } -> r
  | Node { l; k; v; r; _ } -> bal (remove_min l) k v r

let merge t1 t2 =
  match (t1, t2) with
  | Empty, t | t, Empty -> t
  | _ -> (
      match min_node t2 with
      | Some (k, v) -> bal t1 k v (remove_min t2)
      | None -> t1)

let rec remove_tree k = function
  | Empty -> Empty
  | Node { l; k = k'; v; r; _ } ->
      let c = Value.compare k k' in
      if c = 0 then merge l r
      else if c < 0 then bal (remove_tree k l) k' v r
      else bal l k' v (remove_tree k r)

let empty = { tree = Empty; size = 0 }
let cardinal m = m.size

(* Lookups recurse through top-level functions, not local closures, so a
   probe allocates nothing. *)
let rec find_tree default k = function
  | Empty -> default
  | Node n ->
      let c = Value.compare k n.k in
      if c = 0 then n.v else find_tree default k (if c < 0 then n.l else n.r)

let rec find_opt_tree k = function
  | Empty -> None
  | Node n ->
      let c = Value.compare k n.k in
      if c = 0 then Some n.v else find_opt_tree k (if c < 0 then n.l else n.r)

let find_or ~default k m = find_tree default k m.tree
let find_opt k m = find_opt_tree k m.tree

let mem k m = Option.is_some (find_opt k m)

let add k v m =
  let size = if mem k m then m.size else m.size + 1 in
  { tree = add_tree k v m.tree; size }

let update k f m =
  let old = find_opt k m in
  match (old, f old) with
  | None, None -> m
  | Some _, None -> { tree = remove_tree k m.tree; size = m.size - 1 }
  | None, Some v -> { tree = add_tree k v m.tree; size = m.size + 1 }
  | Some _, Some v -> { tree = add_tree k v m.tree; size = m.size }

let init_sorted n key value =
  for i = 1 to n - 1 do
    if Value.compare (key (i - 1)) (key i) >= 0 then
      invalid_arg "Vmap.init_sorted: keys not strictly increasing"
  done;
  (* [lo, hi): the middle binding over the two halves, so sibling heights
     differ by at most one *)
  let rec build lo hi =
    if lo >= hi then Empty
    else
      let mid = (lo + hi) / 2 in
      let l = build lo mid in
      create l (key mid) (value mid) (build (mid + 1) hi)
  in
  { tree = build 0 n; size = max n 0 }

let min_key m = Option.map fst (min_node m.tree)

let max_key m =
  let rec go = function
    | Empty -> None
    | Node { r = Empty; k; _ } -> Some k
    | Node { r; _ } -> go r
  in
  go m.tree

let bindings m =
  let rec go acc = function
    | Empty -> acc
    | Node { l; k; v; r; _ } -> go ((k, v) :: go acc r) l
  in
  go [] m.tree
