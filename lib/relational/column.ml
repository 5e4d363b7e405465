(* Column-major storage: one [int array] of interned value ids per column,
   row [r] of column [c] holding [Intern.id t.(c)] for the [r]-th tuple in
   ascending {!Tuple.compare} order (the same order as [Relation.to_array],
   so row positions are meaningful across both representations).

   Per-column occurrence counts are built in the same pass; they back
   {!Stats} when this view is the first structure a relation builds. *)

type t = {
  name : string;  (* relation name, for error messages *)
  rows : int;
  arity : int;
  cols : int array array;
  counts : (int, int) Hashtbl.t array;  (* per column: value id -> #rows *)
}

let of_tuples ~name ~arity (tuples : Tuple.t array) =
  let rows = Array.length tuples in
  let cols = Array.init arity (fun _ -> Array.make rows 0) in
  let counts = Array.init arity (fun _ -> Hashtbl.create 16) in
  for r = 0 to rows - 1 do
    let t = tuples.(r) in
    for c = 0 to arity - 1 do
      let id = Intern.id t.(c) in
      cols.(c).(r) <- id;
      let tbl = counts.(c) in
      Hashtbl.replace tbl id (1 + Option.value (Hashtbl.find_opt tbl id) ~default:0)
    done
  done;
  { name; rows; arity; cols; counts }

let rows t = t.rows
let arity t = t.arity

let check_col fname t c =
  if c < 0 || c >= t.arity then
    failwith
      (Printf.sprintf "Column.%s: relation %s has no column %d (arity %d)"
         fname t.name c t.arity)

let check_row fname t r =
  if r < 0 || r >= t.rows then
    failwith
      (Printf.sprintf "Column.%s: relation %s has no row %d (%d rows)"
         fname t.name r t.rows)

let ids t c =
  check_col "ids" t c;
  t.cols.(c)

let id t ~col ~row =
  check_col "id" t col;
  check_row "id" t row;
  t.cols.(col).(row)

let value t ~col ~row = Intern.value (id t ~col ~row)

let tuple t r =
  check_row "tuple" t r;
  Array.init t.arity (fun c -> Intern.value t.cols.(c).(r))

let distinct t c =
  check_col "distinct" t c;
  Hashtbl.length t.counts.(c)

let counts t = t.counts
