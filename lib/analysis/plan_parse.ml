open Qlang

let fail ln msg = failwith (Printf.sprintf "plan parse: line %d: %s" ln msg)

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)
(* ------------------------------------------------------------------ *)

type line = { ln : int; depth : int; text : string }

(* Drop a trailing "  [...]" note, the form [Plan.pp] prints estimates and
   the answer header's fragment in; the notation's own brackets follow a
   single space. *)
let strip_note s =
  let rec last_note i =
    if i < 0 then None
    else if String.sub s i 3 = "  [" then Some i
    else last_note (i - 1)
  in
  let body = String.trim s in
  if body = "" || body.[String.length body - 1] <> ']' then s
  else
    match last_note (String.length s - 3) with
    | Some i -> String.sub s 0 i
    | None -> s

(* The positions of [c] outside string literals, in order ([Value.pp]
   escapes quotes and backslashes inside them): a constant like "a#b, c"
   is neither a comment nor two values. *)
let unquoted c s =
  let n = String.length s in
  let rec go i quoted acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '\\' when quoted -> go (i + 2) quoted acc
      | '"' -> go (i + 1) (not quoted) acc
      | c' when c' = c && not quoted -> go (i + 1) quoted (i :: acc)
      | _ -> go (i + 1) quoted acc
  in
  go 0 false []

let strip_comment s =
  match unquoted '#' s with i :: _ -> String.sub s 0 i | [] -> s

let split_lines src =
  let raw = String.split_on_char '\n' src in
  List.filteri (fun _ _ -> true) raw
  |> List.mapi (fun i s -> (i + 1, s))
  |> List.filter_map (fun (ln, s) ->
         let s = strip_comment s in
         let s = strip_note s in
         if String.trim s = "" then None
         else begin
           let indent = ref 0 in
           while !indent < String.length s && s.[!indent] = ' ' do incr indent done;
           if !indent mod 2 <> 0 then
             fail ln "indentation must be a multiple of 2 spaces";
           Some { ln; depth = !indent / 2; text = String.trim s }
         end)

(* ------------------------------------------------------------------ *)
(* Tokens of one line                                                  *)
(* ------------------------------------------------------------------ *)

let parse_term ln s =
  let s = String.trim s in
  if s = "" then fail ln "empty term"
  else if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"'
  then Ast.Const (Relational.Value.Str (String.sub s 1 (String.length s - 2)))
  else
    match int_of_string_opt s with
    | Some i -> Ast.Const (Relational.Value.Int i)
    | None -> Ast.Var s

(* "R(t, t, ...)" -> atom *)
let parse_atom ln s =
  match String.index_opt s '(' with
  | None -> fail ln (Printf.sprintf "expected atom, got %S" s)
  | Some i ->
      if s.[String.length s - 1] <> ')' then fail ln "unclosed atom";
      let rel = String.trim (String.sub s 0 i) in
      let inner = String.sub s (i + 1) (String.length s - i - 2) in
      let args =
        if String.trim inner = "" then []
        else List.map (parse_term ln) (String.split_on_char ',' inner)
      in
      { Ast.rel; args }

(* "[v, v, ...]" -> string list *)
let parse_var_list ln s =
  let s = String.trim s in
  if String.length s < 2 || s.[0] <> '[' || s.[String.length s - 1] <> ']' then
    fail ln (Printf.sprintf "expected [v, ...], got %S" s);
  let inner = String.sub s 1 (String.length s - 2) in
  if String.trim inner = "" then []
  else List.map String.trim (String.split_on_char ',' inner)

let parse_cmp ln s =
  (* longest operators first so "<=" is not read as "<" *)
  let ops =
    [ ("!=", Ast.Neq); ("<=", Ast.Le); (">=", Ast.Ge);
      ("=", Ast.Eq); ("<", Ast.Lt); (">", Ast.Gt) ]
  in
  let find (tok, cmp) =
    let tl = String.length tok and sl = String.length s in
    let rec scan i =
      if i + tl > sl then None
      else if String.sub s i tl = tok then Some i
      else scan (i + 1)
    in
    Option.map (fun i -> (i, tl, cmp)) (scan 0)
  in
  match List.find_map find ops with
  | None -> fail ln (Printf.sprintf "no comparison operator in %S" s)
  | Some (i, tl, cmp) ->
      let lhs = parse_term ln (String.sub s 0 i) in
      let rhs = parse_term ln (String.sub s (i + tl) (String.length s - i - tl)) in
      Plan.Cond_cmp (cmp, lhs, rhs)

(* "dist[NAME](t, t) <= K", the form [Plan.pp_cond] prints *)
let parse_dist ln s =
  match
    Scanf.sscanf s "dist[%[^]]](%[^,],%[^)]) <= %f%!" (fun n t1 t2 k ->
        (n, t1, t2, k))
  with
  | n, t1, t2, k ->
      Plan.Cond_dist (String.trim n, parse_term ln t1, parse_term ln t2, k)
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
      fail ln (Printf.sprintf "malformed distance condition %S" s)

let parse_atomic_cond ln s =
  let s = String.trim s in
  if String.starts_with ~prefix:"dist[" s then parse_dist ln s
  else parse_cmp ln s

(* "c | c | ..." -> a right-nested disjunction of comparisons and
   distance conditions *)
let parse_cond ln s =
  let rec fold = function
    | [] -> fail ln "empty condition"
    | [ c ] -> parse_atomic_cond ln c
    | c :: rest -> Plan.Cond_or (parse_atomic_cond ln c, fold rest)
  in
  fold (String.split_on_char '|' s)

(* Split "TEXT KW [..]" at the first " KW [" into the text before it and
   the bracketed list ("scan R(x) vars [a]", "scan R(x, y) keep [x]",
   "index-join E(x, y) keep [y]"). *)
let split_suffix kw s =
  let marker = " " ^ kw ^ " [" in
  let ml = String.length marker and sl = String.length s in
  let rec scan i =
    if i + ml > sl then None
    else if String.sub s i ml = marker then Some i
    else scan (i + 1)
  in
  match scan 0 with
  | None -> (s, None)
  | Some i ->
      let bracket = i + ml - 1 in
      (String.trim (String.sub s 0 i),
       Some (String.trim (String.sub s bracket (sl - bracket))))

(* ------------------------------------------------------------------ *)
(* Node trees                                                          *)
(* ------------------------------------------------------------------ *)

let keyword s =
  match String.index_opt s ' ' with
  | Some i -> (String.sub s 0 i, String.trim (String.sub s i (String.length s - i)))
  | None -> (s, "")

(* Parse the node at the head of [lines], whose depth must be [depth];
   returns the node and the remaining lines. *)
let rec parse_node depth lines =
  match lines with
  | [] -> failwith "plan parse: unexpected end of input (missing child node)"
  | l :: _ when l.depth <> depth ->
      fail l.ln
        (Printf.sprintf "expected a node at depth %d, got %S at depth %d"
           depth l.text l.depth)
  | l :: rest -> (
      let opline, vars_override = split_suffix "vars" l.text in
      let kw, arg = keyword opline in
      let child1 rest =
        let c, rest = parse_node (depth + 1) rest in
        (c, rest)
      in
      let child2 rest =
        let a, rest = parse_node (depth + 1) rest in
        let b, rest = parse_node (depth + 1) rest in
        (a, b, rest)
      in
      let op, rest =
        match kw with
        | "true" -> (Plan.Tt, rest)
        | "false" -> (Plan.Ff, rest)
        | "scan" ->
            let atom_text, keep = split_suffix "keep" arg in
            let a = parse_atom l.ln atom_text in
            let keep =
              match keep with
              | Some s -> parse_var_list l.ln s
              | None -> Plan.atom_vars_sorted a
            in
            (Plan.Scan (a, keep), rest)
        | "index-join" ->
            let atom_text, keep = split_suffix "keep" arg in
            let a = parse_atom l.ln atom_text in
            let c, rest = child1 rest in
            let keep =
              match keep with
              | Some s -> parse_var_list l.ln s
              | None -> Plan.join_vars c a
            in
            (Plan.Index_join (c, a, keep), rest)
        | "hash-join" ->
            let a, b, rest = child2 rest in
            (Plan.Hash_join (a, b), rest)
        | "anti-join" ->
            let a, b, rest = child2 rest in
            (Plan.Anti_join (a, b), rest)
        | "filter" ->
            let c, rest = child1 rest in
            (Plan.Filter (parse_cond l.ln arg, c), rest)
        | "builtin" -> (Plan.Builtin (parse_cond l.ln arg), rest)
        | "extend" ->
            let c, rest = child1 rest in
            (Plan.Extend (parse_var_list l.ln arg, c), rest)
        | "project" ->
            let c, rest = child1 rest in
            (Plan.Project (parse_var_list l.ln arg, c), rest)
        | "union" ->
            let a, b, rest = child2 rest in
            (Plan.Union (a, b), rest)
        | "complement" ->
            let c, rest = child1 rest in
            (Plan.Complement c, rest)
        | other -> fail l.ln (Printf.sprintf "unknown node kind %S" other)
      in
      let nvars =
        match vars_override with
        | Some s -> parse_var_list l.ln s
        | None -> Plan.op_vars op
      in
      (Plan.raw_node op nvars, rest))

(* ------------------------------------------------------------------ *)
(* Headers                                                             *)
(* ------------------------------------------------------------------ *)

let split_values s =
  let cuts = unquoted ',' s in
  List.map2
    (fun a b -> String.sub s a (b - a))
    (0 :: List.map succ cuts)
    (cuts @ [ String.length s ])

(* An optional "constants v, v, ..." line at depth 0, the values that
   [Plan.pp] prints for a disjunct or a program whose query mentions
   constants; absent means none. *)
let parse_consts = function
  | l :: rest when l.depth = 0 && fst (keyword l.text) = "constants" ->
      let values =
        try List.map Relational.Value.of_string (split_values (snd (keyword l.text)))
        with Invalid_argument msg -> fail l.ln msg
      in
      (values, rest)
  | lines -> ([], lines)

let parse_answer ln head_text lines =
  let head_atom = parse_atom ln head_text in
  let head_vars =
    List.map
      (function
        | Ast.Var v -> v
        | Ast.Const _ -> fail ln "answer head must list variables")
      head_atom.Ast.args
  in
  (* [Plan.pp] heads each disjunct of a multi-disjunct plan with a
     "disjunct N:" line at depth 0 *)
  let is_disjunct_header l =
    l.depth = 0
    && String.starts_with ~prefix:"disjunct " l.text
    && String.ends_with ~suffix:":" l.text
  in
  let rec disjuncts lines =
    match lines with
    | [] -> []
    | l :: rest when is_disjunct_header l -> disjuncts rest
    | _ ->
        let d_consts, lines = parse_consts lines in
        let n, rest = parse_node 1 lines in
        { Plan.d_node = n; d_consts } :: disjuncts rest
  in
  let fp_disjuncts = disjuncts lines in
  Plan.Answer
    {
      fp_query =
        { Ast.name = head_atom.Ast.rel; head = head_vars; body = Ast.True };
      fp_schema = Relational.Schema.make head_atom.Ast.rel head_vars;
      fp_head = head_atom.Ast.args;
      fp_fragment = Fragment.Fo;
      fp_disjuncts;
    }

let parse_idb ln s =
  match String.index_opt s '/' with
  | None -> fail ln (Printf.sprintf "expected name/arity, got %S" s)
  | Some i -> (
      let name = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some k -> (name, k)
      | None -> fail ln (Printf.sprintf "bad arity in %S" s))

(* "{a/1, b/2}" -> the stratum's IDBs *)
let parse_idb_set ln s =
  let s = String.trim s in
  if String.length s < 2 || s.[0] <> '{' || s.[String.length s - 1] <> '}' then
    fail ln (Printf.sprintf "expected {name/arity, ...}, got %S" s);
  String.sub s 1 (String.length s - 2)
  |> String.split_on_char ','
  |> List.map (fun idb -> parse_idb ln (String.trim idb))

(* A "KW ...:" header line: the text between the keyword and the colon. *)
let header kw l =
  let kw', arg = keyword l.text in
  if kw' <> kw || not (String.ends_with ~suffix:":" arg) then
    fail l.ln (Printf.sprintf "expected a '%s ...:' header" kw);
  String.trim (String.sub arg 0 (String.length arg - 1))

(* The layout [Plan.pp] prints: "stratum N: {p/k, ...}" at depth 0, then
   per rule "rule HEAD:" at depth 1 with its full body at depth 2,
   followed by its "delta variant N:" headers, each with a body at
   depth 2. *)
let parse_fixpoint ln answer lines =
  if String.trim answer = "" then fail ln "fixpoint header needs an answer predicate";
  let rec deltas = function
    | l :: rest when l.depth = 1 && String.starts_with ~prefix:"delta " l.text ->
        if not (String.starts_with ~prefix:"variant " (header "delta" l)) then
          fail l.ln "expected a 'delta variant N:' header";
        let d, rest = parse_node 2 rest in
        let ds, rest = deltas rest in
        (d :: ds, rest)
    | lines -> ([], lines)
  in
  let rec rules = function
    | l :: rest when l.depth = 1 ->
        let head = parse_atom l.ln (header "rule" l) in
        let rp_full, rest = parse_node 2 rest in
        let rp_deltas, rest = deltas rest in
        let rs, rest = rules rest in
        ({ Plan.rp_head = head; rp_full; rp_deltas } :: rs, rest)
    | lines -> ([], lines)
  in
  let rec strata i = function
    | [] -> []
    | l :: rest when l.depth = 0 ->
        let n, idbs =
          match String.index_opt l.text ':' with
          | Some c when String.starts_with ~prefix:"stratum " l.text ->
              ( String.trim (String.sub l.text 8 (c - 8)),
                String.sub l.text (c + 1) (String.length l.text - c - 1) )
          | _ -> fail l.ln "expected a 'stratum N: {...}' header"
        in
        if int_of_string_opt n <> Some i then
          fail l.ln (Printf.sprintf "expected stratum %d, got %S" i n);
        let st_idbs = parse_idb_set l.ln idbs in
        let st_rules, rest = rules rest in
        { Plan.st_idbs; st_rules } :: strata (i + 1) rest
    | l :: _ -> fail l.ln "expected a stratum header at depth 0"
  in
  let dp_consts, lines = parse_consts lines in
  Plan.Fixpoint
    {
      dp_program = { Datalog.rules = []; answer };
      dp_strata = strata 0 lines;
      dp_consts;
      dp_answer = answer;
    }

let parse src =
  match split_lines src with
  | [] -> failwith "plan parse: empty input"
  | l :: rest when l.depth = 0 -> (
      let kw, arg = keyword l.text in
      match kw with
      | "answer" -> parse_answer l.ln arg rest
      | "fixpoint" -> parse_fixpoint l.ln arg rest
      | other ->
          fail l.ln
            (Printf.sprintf "expected 'answer' or 'fixpoint' header, got %S" other))
  | l :: _ -> fail l.ln "the header must not be indented"
