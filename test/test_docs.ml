(* The documents name repository files and library modules; a rename or a
   deletion must not leave them pointing at nothing.  Every backquoted
   path under lib/, bin/, bench/, perfbench/ or test/ in README, DESIGN
   and EXPERIMENTS must exist, and every library-qualified module
   (Core.Instance, Qlang.Plan, ...) must name a file lib/<lib>/<x>.ml. *)

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

let test_found_some () =
  let text = String.concat "\n" (List.map read docs) in
  Alcotest.(check bool) "paths found" true (List.length (doc_paths text) > 10);
  Alcotest.(check bool) "modules found" true (List.length (module_refs text) > 10)

let () =
  Alcotest.run "docs"
    [
      ( "references",
        [
          Alcotest.test_case "backquoted repo paths exist" `Quick test_paths;
          Alcotest.test_case "library-qualified modules exist" `Quick test_modules;
          Alcotest.test_case "the scan finds references" `Quick test_found_some;
        ] );
    ]
