type column_stats = {
  distinct : int;
  min_v : Value.t option;
  max_v : Value.t option;
}

type relation_stats = {
  rname : string;
  rows : int;
  columns : column_stats array;
}

(* Statistics read the relation's cached per-column count maps (built in
   one pass, or derived incrementally by [Relation.add]/[remove]):
   distinct is the map's size and min/max its extreme keys — O(log
   distinct) per column instead of a fresh O(rows) sweep. *)
let column_of_counts m =
  { distinct = Vmap.cardinal m; min_v = Vmap.min_key m; max_v = Vmap.max_key m }

let of_relation rel =
  {
    rname = (Relation.schema rel).Schema.name;
    rows = Relation.cardinal rel;
    columns = Array.map column_of_counts (Relation.col_counts rel);
  }

let of_database db =
  List.map
    (fun rel -> ((Relation.schema rel).Schema.name, of_relation rel))
    (Database.relations db)

(* All the estimators index columns from caller-supplied plans; a stale or
   miswired plan must surface as a diagnosis, not a bare
   [Invalid_argument "index out of bounds"]. *)
let column stats col =
  if col < 0 || col >= Array.length stats.columns then
    failwith
      (Printf.sprintf "Stats: relation %s has no column %d (arity %d)"
         stats.rname col (Array.length stats.columns))
  else stats.columns.(col)

let eq_selectivity stats col =
  let c = column stats col in
  if stats.rows = 0 then 0.
  else if c.distinct = 0 then 0.
  else 1. /. float_of_int c.distinct

let join_size_estimate a ca b cb =
  let da = (column a ca).distinct and db_ = (column b cb).distinct in
  let d = max 1 (max da db_) in
  float_of_int a.rows *. float_of_int b.rows /. float_of_int d

let pp ppf s =
  Format.fprintf ppf "@[<v>%s: %d rows@,%a@]" s.rname s.rows
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (i, c) ->
         Format.fprintf ppf "col %d: %d distinct%a%a" i c.distinct
           (fun ppf -> function
             | Some v -> Format.fprintf ppf ", min %a" Value.pp v
             | None -> ())
           c.min_v
           (fun ppf -> function
             | Some v -> Format.fprintf ppf ", max %a" Value.pp v
             | None -> ())
           c.max_v))
    (Array.to_list (Array.mapi (fun i c -> (i, c)) s.columns))
