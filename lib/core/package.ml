module Tuple = Relational.Tuple

module Tset = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = Tset.t

let empty = Tset.empty
let of_tuples = Tset.of_list
let singleton = Tset.singleton
let to_list = Tset.elements
let size = Tset.cardinal
let is_empty = Tset.is_empty
let mem = Tset.mem
let add = Tset.add
let union = Tset.union
let subset = Tset.subset
let strict_superset n n' = Tset.subset n n' && not (Tset.equal n n')
let diff = Tset.diff
let compare = Tset.compare
let equal = Tset.equal

let subset_of_relation n r = Tset.for_all (fun t -> Relational.Relation.mem t r) n

let to_relation sch n = Relational.Relation.of_list sch (to_list n)

let fold_col f col n acc =
  Tset.fold (fun tup acc -> f (Tuple.get tup col) acc) n acc

let pp ppf n =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Tuple.pp)
    (to_list n)

let to_string n = Format.asprintf "%a" pp n
