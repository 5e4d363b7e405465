(* The documents name repository files, library modules and their values;
   a rename or a deletion must not leave them pointing at nothing.  Every
   backquoted path under lib/, bin/, bench/, perfbench/ or test/ in
   README, DESIGN and EXPERIMENTS must exist, every library-qualified
   module (Core.Instance, Qlang.Plan, ...) must name a file
   lib/<lib>/<x>.ml, and every backquoted value of a module under lib/
   (Instance.candidates, Core.Frp.enumerate, ...) must be declared
   [val] (or [type]) in that module's interface. *)

let docs = [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]
let roots = [ "lib/"; "bin/"; "bench/"; "perfbench/"; "test/" ]
(* Under [dune runtest] the test runs one directory below the root. *)
let root = if Sys.file_exists "dune-project" then "." else ".."
let in_repo path = Filename.concat root path

let read path =
  In_channel.with_open_bin (in_repo path) In_channel.input_all

let is_path_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '/' | '-' | '*' | '<' | '>' -> true
  | _ -> false

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Maximal runs of characters satisfying [keep], with their start. *)
let runs keep s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if not (keep s.[i]) then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && keep s.[!j] do incr j done;
      go !j ((i, String.sub s i (!j - i)) :: acc)
  in
  go 0 []

(* The spans between backquotes. *)
let backquoted text =
  List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' text)

(* A repository path inside a backquoted span: [bench/main.exe] stands for
   its source [bench/main.ml]; patterns ([*], [<x>]) are not paths. *)
let doc_paths text =
  List.concat_map
    (fun span ->
      List.filter_map
        (fun (_, tok) ->
          let tok =
            if String.ends_with ~suffix:"." tok then
              String.sub tok 0 (String.length tok - 1)
            else tok
          in
          if
            List.exists (fun r -> String.starts_with ~prefix:r tok) roots
            && not (String.exists (fun c -> c = '*' || c = '<') tok)
          then
            Some
              (if Filename.check_suffix tok ".exe" then
                 Filename.chop_suffix tok ".exe" ^ ".ml"
               else tok)
          else None)
        (runs is_path_char span))
    (backquoted text)

let libraries =
  List.filter
    (fun d -> Sys.is_directory (in_repo (Filename.concat "lib" d)))
    (Array.to_list (Sys.readdir (in_repo "lib")))

(* A library made of the one module named after it exposes only what that
   module names, so [Observe.Count] is a constructor, not a file. *)
let single_module lib =
  Sys.file_exists (in_repo (Printf.sprintf "lib/%s/%s.ml" lib lib))

(* [Lib.Module] references: a library name (capitalized) not preceded by
   an identifier character or a dot, then a capitalized component. *)
let module_refs text =
  List.concat_map
    (fun (start, word) ->
      let preceded = start > 0 && (is_ident_char text.[start - 1] || text.[start - 1] = '.') in
      match String.split_on_char '.' word with
      | lib :: m :: _ when (not preceded) && m <> "" && Char.uppercase_ascii m.[0] = m.[0]
                           && Char.lowercase_ascii m.[0] <> m.[0] ->
          let lib = String.uncapitalize_ascii lib in
          if List.mem lib libraries && not (single_module lib) then
            [ (word, Printf.sprintf "lib/%s/%s.ml" lib (String.uncapitalize_ascii m)) ]
          else []
      | _ -> [])
    (runs (fun c -> is_ident_char c || c = '.') text)

(* The interface of each module under lib/, by module name. *)
let interfaces =
  List.concat_map
    (fun lib ->
      let dir = Filename.concat "lib" lib in
      List.filter_map
        (fun f ->
          if Filename.check_suffix f ".mli" then
            Some
              ( String.capitalize_ascii (Filename.chop_suffix f ".mli"),
                Filename.concat dir f )
          else None)
        (Array.to_list (Sys.readdir (in_repo dir))))
    libraries

let is_lower s = s <> "" && Char.lowercase_ascii s.[0] = s.[0] && s.[0] <> '_'

(* Backquoted [M.v] and [Lib.M.v] references, with [M] a module under lib/
   and [v] lowercase, as ("M.v" as written, the interface of M, v).  What
   follows [v] (a record field, a submodule path) is not checked. *)
let value_refs text =
  List.concat_map
    (fun span ->
      List.filter_map
        (fun (start, word) ->
          let preceded = start > 0 && span.[start - 1] = '.' in
          let path = List.filter (( <> ) "") (String.split_on_char '.' word) in
          let target =
            match path with
            | lib :: m :: v :: _
              when List.mem lib (List.map String.capitalize_ascii libraries)
                   && not (single_module (String.uncapitalize_ascii lib)) ->
                Some (m, v)
            | m :: v :: _ -> Some (m, v)
            | _ -> None
          in
          match target with
          | Some (m, v) when (not preceded) && is_lower v -> (
              match List.assoc_opt m interfaces with
              | Some mli -> Some (word, mli, v)
              | None -> None)
          | _ -> None)
        (runs (fun c -> is_ident_char c || c = '.') span))
    (backquoted text)

(* [val v] (or [type v], for a type named like [Database.t]) opens a line
   of the interface, at any indentation. *)
let declares mli v =
  List.exists
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | ("val" | "type") :: name :: _ -> name = v || name = v ^ ":"
      | _ -> false)
    (String.split_on_char '\n' (read mli))

let undeclared text =
  List.filter (fun (_, mli, v) -> not (declares mli v)) (value_refs text)

let test_paths () =
  List.iter
    (fun doc ->
      List.iter
        (fun path ->
          if not (Sys.file_exists (in_repo path)) then
            Alcotest.failf "%s names %s, which does not exist" doc path)
        (doc_paths (read doc)))
    docs

let test_modules () =
  List.iter
    (fun doc ->
      List.iter
        (fun (word, file) ->
          if not (Sys.file_exists (in_repo file)) then
            Alcotest.failf "%s names %s, but %s does not exist" doc word file)
        (module_refs (read doc)))
    docs

let test_values () =
  let missing =
    List.concat_map
      (fun doc ->
        List.map
          (fun (word, mli, v) ->
            Printf.sprintf "%s names %s, but %s declares no val %s" doc word mli v)
          (undeclared (read doc)))
      docs
  in
  if missing <> [] then Alcotest.fail (String.concat "\n" missing)

let test_found_some () =
  let text = String.concat "\n" (List.map read docs) in
  Alcotest.(check bool) "paths found" true (List.length (doc_paths text) > 10);
  Alcotest.(check bool) "modules found" true (List.length (module_refs text) > 10);
  Alcotest.(check bool) "values found" true (List.length (value_refs text) > 10)

(* The value check itself: a value that exists passes, one that does not
   is reported, whether it is written M.v or Lib.M.v. *)
let test_values_checked () =
  let words text = List.map (fun (w, _, _) -> w) (undeclared text) in
  Alcotest.(check (list string))
    "missing values reported"
    [ "Pool.spawn"; "Robust.Budget.refuel" ]
    (words
       "`Pool.spawn`, `Robust.Budget.refuel`, `Budget.check`, \
        `Core.Frp.enumerate ~k`, `List.find_first`")

let () =
  Alcotest.run "docs"
    [
      ( "references",
        [
          Alcotest.test_case "backquoted repo paths exist" `Quick test_paths;
          Alcotest.test_case "library-qualified modules exist" `Quick test_modules;
          Alcotest.test_case "module values are declared" `Quick test_values;
          Alcotest.test_case "undeclared values are reported" `Quick
            test_values_checked;
          Alcotest.test_case "the scan finds references" `Quick test_found_some;
        ] );
    ]
