type t = Value.t array

let arity = Array.length

(* Top-level rather than a local closure, so a comparison allocates
   nothing: sorting and set operations call it once per step. *)
let rec compare_from a b i n =
  if i = n then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare a b =
  if a == b then 0
  else
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb else compare_from a b 0 la

let equal a b = compare a b = 0

let hash t =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get t i)
  done;
  !h

let of_list = Array.of_list
let to_list = Array.to_list
let of_ints xs = Array.of_list (List.map (fun i -> Value.Int i) xs)

let get t i =
  if i < 0 || i >= Array.length t then invalid_arg "Tuple.get"
  else t.(i)

let concat = Array.append

let project cols t = Array.of_list (List.map (get t) cols)

let pp ppf t =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    t

let to_string t = Format.asprintf "%a" pp t
