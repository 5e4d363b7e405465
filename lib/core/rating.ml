type t = {
  name : string;
  eval : Package.t -> float;
  monotone : bool;
  additive : (Relational.Tuple.t -> float) option;
      (* per-item contribution: on non-empty packages [eval] is its sum *)
}

let name r = r.name
let eval r n = r.eval n
let is_monotone r = r.monotone
let additive r = r.additive

let of_fun ?(monotone = false) name eval =
  { name; eval; monotone; additive = None }

let const c =
  { name = string_of_float c; eval = (fun _ -> c); monotone = true; additive = None }

let count =
  {
    name = "count";
    eval = (fun n -> float_of_int (Package.size n));
    monotone = true;
    additive = Some (fun _ -> 1.);
  }

let card_or_infinite =
  {
    name = "card-or-inf";
    eval =
      (fun n ->
        if Package.is_empty n then infinity else float_of_int (Package.size n));
    monotone = true (* on non-empty packages; see the interface *);
    additive = Some (fun _ -> 1.);
  }

let int_value v = match v with Relational.Value.Int i -> float_of_int i | _ -> 0.

let sum_col ?(nonneg = false) col =
  {
    name = Printf.sprintf "sum(col %d)" col;
    eval = (fun n -> Package.fold_col (fun v acc -> acc +. int_value v) col n 0.);
    monotone = nonneg;
    additive = Some (fun t -> int_value (Relational.Tuple.get t col));
  }

let min_col col =
  {
    name = Printf.sprintf "min(col %d)" col;
    eval =
      (fun n -> Package.fold_col (fun v acc -> Float.min acc (int_value v)) col n infinity);
    monotone = false;
    additive = None;
  }

let max_col col =
  {
    name = Printf.sprintf "max(col %d)" col;
    eval =
      (fun n ->
        Package.fold_col (fun v acc -> Float.max acc (int_value v)) col n neg_infinity);
    monotone = true;
    additive = None;
  }

let avg_col col =
  {
    name = Printf.sprintf "avg(col %d)" col;
    eval =
      (fun n ->
        if Package.is_empty n then 0.
        else
          Package.fold_col (fun v acc -> acc +. int_value v) col n 0.
          /. float_of_int (Package.size n));
    monotone = false;
    additive = None;
  }

let lift2 op a b =
  match (a.additive, b.additive) with
  | Some f, Some g -> Some (fun t -> op (f t) (g t))
  | _ -> None

let add a b =
  {
    name = Printf.sprintf "(%s + %s)" a.name b.name;
    eval = (fun n -> a.eval n +. b.eval n);
    monotone = a.monotone && b.monotone;
    additive = lift2 ( +. ) a b;
  }

let sub a b =
  {
    name = Printf.sprintf "(%s - %s)" a.name b.name;
    eval = (fun n -> a.eval n -. b.eval n);
    monotone = false;
    additive = lift2 ( -. ) a b;
  }

let scale c r =
  {
    name = Printf.sprintf "%g * %s" c r.name;
    eval = (fun n -> c *. r.eval n);
    monotone = (r.monotone && c >= 0.);
    additive = Option.map (fun f t -> c *. f t) r.additive;
  }

let neg r =
  {
    name = Printf.sprintf "-%s" r.name;
    eval = (fun n -> -.r.eval n);
    monotone = false;
    additive = Option.map (fun f t -> -.f t) r.additive;
  }

let on_empty v r =
  {
    name = Printf.sprintf "%s[∅ -> %g]" r.name v;
    eval = (fun n -> if Package.is_empty n then v else r.eval n);
    monotone = r.monotone (* monotonicity is on non-empty packages only *);
    additive = r.additive (* so is additivity *);
  }

let clamp_min lo r =
  {
    name = Printf.sprintf "max(%g, %s)" lo r.name;
    eval = (fun n -> Float.max lo (r.eval n));
    monotone = r.monotone;
    additive = None;
  }

let pp ppf r = Format.pp_print_string ppf r.name
