type t =
  | Int of int
  | Str of string
  | Bool of bool

let tag = function Bool _ -> 0 | Int _ -> 1 | Str _ -> 2

let compare a b =
  match a, b with
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | (Bool _ | Int _ | Str _), _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = function
  | Bool b -> if b then 1 else 0
  | Int i ->
      let h = i * 0x2545F4914F6CDD1D in
      h lxor (h lsr 29)
  | Str s -> Hashtbl.hash s

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v

let of_string s =
  let s = String.trim s in
  let n = String.length s in
  if n >= 1 && s.[0] = '"' then begin
    if n < 2 || s.[n - 1] <> '"' then
      invalid_arg ("Value.of_string: unterminated quote in " ^ s)
    else
      (* [%n] pins the literal to the whole input: a quoted literal
         followed by trailing junk must be rejected, not silently
         truncated at the first closing quote. *)
      match Scanf.sscanf s "%S%n" (fun x k -> (x, k)) with
      | x, k when k = n -> Str x
      | _ ->
          invalid_arg
            ("Value.of_string: trailing characters after closing quote in "
            ^ s)
      | exception Scanf.Scan_failure _ ->
          invalid_arg ("Value.of_string: malformed string literal " ^ s)
      | exception End_of_file ->
          invalid_arg ("Value.of_string: malformed string literal " ^ s)
  end
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> Str s

let vtrue = Int 1
let vfalse = Int 0
let of_bit b = if b then vtrue else vfalse

let int_exn = function
  | Int i -> i
  | Str _ | Bool _ -> invalid_arg "Value.int_exn"

let str_exn = function
  | Str s -> s
  | Int _ | Bool _ -> invalid_arg "Value.str_exn"
