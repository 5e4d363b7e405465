type verb =
  | Ping
  | Eval
  | Topk
  | Count
  | Maxbound
  | Rpp
  | Paql
  | Analyze
  | Burn
  | Metrics
  | Instances
  | Shutdown

let verb_to_string = function
  | Ping -> "ping"
  | Eval -> "eval"
  | Topk -> "topk"
  | Count -> "count"
  | Maxbound -> "maxbound"
  | Rpp -> "rpp"
  | Paql -> "paql"
  | Analyze -> "analyze"
  | Burn -> "burn"
  | Metrics -> "metrics"
  | Instances -> "instances"
  | Shutdown -> "shutdown"

let verb_of_string = function
  | "ping" -> Some Ping
  | "eval" -> Some Eval
  | "topk" -> Some Topk
  | "count" -> Some Count
  | "maxbound" -> Some Maxbound
  | "rpp" -> Some Rpp
  | "paql" -> Some Paql
  | "analyze" -> Some Analyze
  | "burn" -> Some Burn
  | "metrics" -> Some Metrics
  | "instances" -> Some Instances
  | "shutdown" -> Some Shutdown
  | _ -> None

let data_plane = function
  | Eval | Topk | Count | Maxbound | Rpp | Paql | Analyze | Burn -> true
  | Ping | Metrics | Instances | Shutdown -> false

type request = {
  id : int;
  verb : verb;
  inst : string option;
  query : string option;
  datalog : bool;
  k : int option;
  bound : float option;
  burn_ms : int option;
  timeout : float option;
  approx : bool;
}

let request ?(id = -1) ?inst ?query ?(datalog = false) ?k ?bound ?burn_ms
    ?timeout ?(approx = false) verb =
  { id; verb; inst; query; datalog; k; bound; burn_ms; timeout; approx }

let is_comment line =
  let line = String.trim line in
  line = "" || line.[0] = '#'

(* Split a request line into tokens.  A quote-opened segment is an
   OCaml string literal: it runs to the matching unescaped quote and
   decodes via [Scanf]; everything else splits on whitespace.  Quoted
   and bare text concatenate within one token, so [q="a b"] stays a
   single token. *)
let split_tokens line =
  let n = String.length line in
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let flush_tok () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  let i = ref 0 in
  let err = ref None in
  while !i < n && !err = None do
    let c = line.[!i] in
    if c = ' ' || c = '\t' then begin
      flush_tok ();
      incr i
    end
    else if c = '"' then begin
      let j = ref (!i + 1) in
      let closed = ref false in
      while (not !closed) && !j < n do
        if line.[!j] = '\\' then j := !j + 2
        else if line.[!j] = '"' then closed := true
        else incr j
      done;
      if not !closed then err := Some "unterminated quoted value"
      else begin
        let raw = String.sub line !i (!j - !i + 1) in
        match Scanf.sscanf_opt raw "%S%!" Fun.id with
        | Some s ->
            Buffer.add_string buf s;
            i := !j + 1
        | None -> err := Some ("malformed quoted value: " ^ raw)
      end
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  match !err with
  | Some e -> Result.Error e
  | None ->
      flush_tok ();
      Result.Ok (List.rev !toks)

let split_kv tok =
  match String.index_opt tok '=' with
  | None -> None
  | Some i ->
      Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let parse_request line =
  match split_tokens line with
  | Error e -> Error e
  | Ok [] -> Error "empty request"
  | Ok (verb_tok :: fields) -> (
      match verb_of_string verb_tok with
      | None -> Error ("unknown verb: " ^ verb_tok)
      | Some verb -> (
          let req = ref (request verb) in
          let bad = ref None in
          let num name conv v k =
            match conv v with
            | Some x -> k x
            | None -> bad := Some (Printf.sprintf "bad %s=%s" name v)
          in
          List.iter
            (fun tok ->
              if !bad = None then
                match split_kv tok with
                | None -> bad := Some ("malformed field (expected key=value): " ^ tok)
                | Some (k, v) -> (
                    match k with
                    | "id" ->
                        num "id" int_of_string_opt v (fun x ->
                            req := { !req with id = x })
                    | "inst" -> req := { !req with inst = Some v }
                    | "q" -> req := { !req with query = Some v }
                    | "datalog" ->
                        req := { !req with datalog = v = "true" || v = "1" }
                    | "k" ->
                        num "k" int_of_string_opt v (fun x ->
                            req := { !req with k = Some x })
                    | "bound" ->
                        num "bound" float_of_string_opt v (fun x ->
                            req := { !req with bound = Some x })
                    | "ms" ->
                        num "ms" int_of_string_opt v (fun x ->
                            req := { !req with burn_ms = Some x })
                    | "timeout" ->
                        num "timeout" float_of_string_opt v (fun x ->
                            req := { !req with timeout = Some x })
                    | "approx" ->
                        req := { !req with approx = v = "true" || v = "1" }
                    | _ -> bad := Some ("unknown field: " ^ k)))
            fields;
          match !bad with Some e -> Error e | None -> Ok !req))

(* Control characters (a newline would end the wire line) are quoted too:
   [%S] escapes them. *)
let needs_quotes s =
  s = ""
  || String.exists
       (fun c -> c <= ' ' || c = '"' || c = '\\' || c = '=' || c = '\127')
       s

let quote_value s = if needs_quotes s then Printf.sprintf "%S" s else s

(* The shortest [%g] rendering that parses back to the same float: plain
   [%g] keeps six digits, so [1234567.] would come back as [1234570.]. *)
let float_value x =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec x in
    if prec >= 17 || float_of_string s = x then s else go (prec + 1)
  in
  go 6

let request_to_line r =
  let b = Buffer.create 64 in
  Buffer.add_string b (verb_to_string r.verb);
  let field k v = Buffer.add_string b (Printf.sprintf " %s=%s" k (quote_value v)) in
  if r.id >= 0 then field "id" (string_of_int r.id);
  Option.iter (field "inst") r.inst;
  Option.iter (field "q") r.query;
  if r.datalog then field "datalog" "true";
  Option.iter (fun k -> field "k" (string_of_int k)) r.k;
  Option.iter (fun x -> field "bound" (float_value x)) r.bound;
  Option.iter (fun m -> field "ms" (string_of_int m)) r.burn_ms;
  Option.iter (fun t -> field "timeout" (float_value t)) r.timeout;
  if r.approx then field "approx" "true";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type status = Ok_ | Partial | Overloaded | Error

let status_to_string = function
  | Ok_ -> "ok"
  | Partial -> "partial"
  | Overloaded -> "overloaded"
  | Error -> "error"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.12g" f
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else "\"nan\""

let response ~id ~verb ~status ?reason ~ms ~data () =
  let reason_part =
    match reason with
    | None -> ""
    | Some r -> Printf.sprintf " \"reason\": \"%s\"," (json_escape r)
  in
  Printf.sprintf
    "{\"id\": %d, \"verb\": \"%s\", \"status\": \"%s\",%s \"ms\": %.3f, \"data\": %s}"
    id (json_escape verb)
    (status_to_string status)
    reason_part ms data

(* ------------------------------------------------------------------ *)
(* Client-side extraction (by construction of [response])              *)
(* ------------------------------------------------------------------ *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let after_key line key =
  Option.map (fun i -> i + String.length key) (find_sub line key)

let until_char line start c =
  match String.index_from_opt line start c with
  | None -> None
  | Some j -> Some (String.sub line start (j - start))

let response_id line =
  Option.bind (after_key line "{\"id\": ") (fun i ->
      Option.bind (until_char line i ',') int_of_string_opt)

let response_status line =
  Option.bind (after_key line "\"status\": \"") (fun i -> until_char line i '"')

let response_reason line =
  Option.bind (after_key line "\"reason\": \"") (fun i -> until_char line i '"')

let response_ms line =
  Option.bind (after_key line "\"ms\": ") (fun i ->
      Option.bind (until_char line i ',') float_of_string_opt)

let response_data line =
  Option.bind (after_key line "\"data\": ") (fun i ->
      let n = String.length line in
      (* the line is [... "data": <json>}]: strip the final brace *)
      if n > i && line.[n - 1] = '}' then Some (String.sub line i (n - 1 - i))
      else None)
