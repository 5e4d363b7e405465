(* The row-array binding sets of the plan interpreter and the semi-naive
   fixpoint built on them.  Every library [Bindings] operator is checked,
   as a set, against the oracle's own ordered-set copy ([Oracle_bindings])
   on random inputs — nullary [tt]/[ff], empty domains, shared and
   disjoint variables — and must never hold a row twice.  The fixpoint is
   checked against [Oracle.eval] on linear, non-linear, mutually recursive
   and stratified-negation programs over random graphs under random
   writes, and the rows the interpreter reads for every shipped example
   are pinned.  [QCHECK_LONG=1] multiplies the property counts by their
   [long_factor]. *)

open Qlang
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database
module L = Bindings
module O = Oracle_bindings

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let counter_value name =
  match List.assoc_opt name (Observe.snapshot ()) with
  | Some (Observe.Count n) -> n
  | _ -> 0

let with_tracing f =
  let was = Observe.enabled () in
  Observe.set_enabled true;
  Observe.reset ();
  Fun.protect ~finally:(fun () -> Observe.set_enabled was) f

(* ---------- library operators = the oracle's copy ---------- *)

let var_pool = [| "a"; "b"; "c"; "d" |]

(* A random variable list, in random order, without repeats. *)
let random_vars rng =
  Array.to_list var_pool
  |> List.filter (fun _ -> Random.State.int rng 3 > 0)
  |> List.map (fun v -> (Random.State.bits rng, v))
  |> List.sort compare |> List.map snd

let random_value rng = Value.Int (Random.State.int rng 4)

(* Rows over a small domain, so repeats are common; a nullary set is
   [ff] or one or more copies of the empty row. *)
let random_rows rng vars =
  List.init (Random.State.int rng 9) (fun _ ->
      Tuple.of_list (List.map (fun _ -> random_value rng) vars))

(* Both sides built from the same variables and rows. *)
let random_pair ?vars rng =
  let vars = match vars with Some vs -> vs | None -> random_vars rng in
  let rows = random_rows rng vars in
  (L.make vars rows, O.make vars rows)

(* A duplicate-free domain, possibly empty, possibly missing values the
   rows use. *)
let random_adom rng =
  List.filter (fun _ -> Random.State.bool rng) (List.init 5 (fun i -> Value.Int i))

(* Equal as sets, and the library side holds no row twice. *)
let same (l : L.t) (o : O.t) =
  let lrows = L.rows l in
  let distinct = List.sort_uniq Tuple.compare lrows in
  L.cardinal l = List.length distinct
  && L.vars l = O.vars o
  && List.equal Tuple.equal distinct (O.rows o)

let random_subset rng vars = List.filter (fun _ -> Random.State.bool rng) vars

let random_head rng vars =
  let pool = vars @ [ "e" ] in
  List.init (Random.State.int rng 4) (fun _ ->
      if Random.State.int rng 4 = 0 then Ast.Const (random_value rng)
      else Ast.Var (List.nth pool (Random.State.int rng (List.length pool))))

let prop_bindings_match_oracle =
  QCheck.Test.make ~name:"Bindings operators = the oracle's ordered sets"
    ~count:300 ~long_factor:20 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let la, oa = random_pair rng and lb, ob = random_pair rng in
      let adom = random_adom rng in
      let ladom = lazy adom in
      let a_vars = Array.to_list (L.vars la) in
      let extra = random_vars rng in
      let keep = random_vars rng in
      let lsub, osub = random_pair ~vars:(random_subset rng a_vars) rng in
      (* below 2 in the first variable; the library reads it as column 0 *)
      let below2 v = Value.compare v (Value.Int 2) < 0 in
      let lpred row = a_vars = [] || below2 row.(0) in
      let opred lookup = match a_vars with [] -> true | v :: _ -> below2 (lookup v) in
      let head = random_head rng a_vars in
      let sch = Schema.make "H" (List.mapi (fun i _ -> "c" ^ string_of_int i) head) in
      same la oa
      && same (L.join la lb) (O.join oa ob)
      && same (L.extend ~adom:ladom extra la) (O.extend ~adom:ladom extra oa)
      && same (L.union ~adom:ladom la lb) (O.union ~adom:ladom oa ob)
      && same (L.complement ~adom:ladom la) (O.complement ~adom:ladom oa)
      && same (L.anti_join la lsub) (O.anti_join oa osub)
      && same (L.project keep la) (O.project keep oa)
      && same (L.filter lpred la) (O.filter opred oa)
      && Relation.equal
           (Relation.of_list sch (L.head_rows ~adom:ladom ~head la))
           (O.to_relation ~adom:ladom sch ~head oa))

(* The nullary sets by name, and the empty domain, on both sides. *)
let test_nullary_and_empty_adom () =
  let none = lazy [] in
  check "tt" true (same L.tt O.tt);
  check "ff" true (same L.ff O.ff);
  check "repeated empty rows are tt" true (same (L.make [] [ [||]; [||] ]) O.tt);
  check "¬tt = ff" true (same (L.complement ~adom:none L.tt) O.ff);
  check "¬ff = tt" true (same (L.complement ~adom:none L.ff) O.tt);
  check "tt ∨ ff = tt" true (same (L.union ~adom:none L.tt L.ff) O.tt);
  check "tt ∧ ff = ff" true (same (L.join L.tt L.ff) O.ff);
  let x = L.make [ "x" ] [ Tuple.of_ints [ 1 ] ] in
  check "padding over an empty domain empties the set" true
    (L.cardinal (L.extend ~adom:none [ "y" ] x) = 0);
  check "complement over an empty domain is empty" true
    (L.cardinal (L.complement ~adom:none x) = 0);
  check "projecting every variable away keeps the empty row" true
    (same (L.project [] x) O.tt)

(* ---------- the fixpoint against the naive oracle ---------- *)

let fixpoint_programs =
  [
    ( "linear reachability",
      "R(y) :- E(x, y), x < 2.\nR(y) :- R(x), E(x, y).\n?- R." );
    ( "non-linear transitive closure",
      "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), T(y, z).\n?- T." );
    ( "mutual recursion",
      "A(x, y) :- E(x, y).\n\
       B(x, z) :- A(x, y), E(y, z).\n\
       A(x, z) :- B(x, y), E(y, z).\n\
       ?- A." );
    ( "stratified negation over a recursive IDB",
      "T(x, y) :- E(x, y).\n\
       T(x, z) :- T(x, y), E(y, z).\n\
       V(x) :- E(x, y).\n\
       V(y) :- E(x, y).\n\
       N(x, y) :- V(x), V(y), not T(x, y).\n\
       ?- N." );
  ]
  |> List.map (fun (name, text) -> (name, Parser.parse_program text))

let random_write rng db =
  let e = Database.find db "E" in
  if Random.State.bool rng || Relation.is_empty e then
    let v () = Value.Int (Random.State.int rng 7) in
    Database.insert_tuple "E" (Tuple.of_list [ v (); v () ]) db
  else
    let edges = Relation.to_list e in
    let victim = List.nth edges (Random.State.int rng (List.length edges)) in
    Database.delete_tuple "E" victim db

let prop_fixpoint_matches_oracle =
  QCheck.Test.make ~name:"semi-naive fixpoint = Oracle.eval under writes"
    ~count:60 ~long_factor:20 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let agrees db =
        List.for_all
          (fun (_, p) ->
            Relation.equal (Query.eval db (Query.Dl p)) (Oracle.eval db (Query.Dl p)))
          fixpoint_programs
      in
      let db0 =
        Workload.Random_db.graph rng ~nodes:(2 + Random.State.int rng 6)
          ~edges:(Random.State.int rng 14)
      in
      let rec go db k = agrees db && (k = 0 || go (random_write rng db) (k - 1)) in
      go db0 (Random.State.int rng 6))

(* The non-linear closure's delta variants read the whole IDB, the linear
   programs' only their delta: both routes through the fixpoint. *)
let test_whole_idb_reads () =
  let reads_whole name p =
    let g = Workload.Random_db.graph (Random.State.make [| 1 |]) ~nodes:3 ~edges:3 in
    match Plan.compile_datalog g p with
    | Plan.Fixpoint dp ->
        List.exists
          (fun stp ->
            List.exists
              (fun rp -> List.exists (Plan.mentions_rel name) rp.Plan.rp_deltas)
              stp.Plan.st_rules)
          dp.Plan.dp_strata
    | _ -> false
  in
  let program name = List.assoc name fixpoint_programs in
  check "T(x, z) :- T(x, y), T(y, z) reads T whole" true
    (reads_whole "T" (program "non-linear transitive closure"));
  check "R(y) :- R(x), E(x, y) reads only R@delta" false
    (reads_whole "R" (program "linear reachability"))

(* ---------- plan.rows of the shipped examples ---------- *)

(* The rows each example reads ([plan.rows]) on examples/queries/db.txt,
   and its fixpoint rounds.  The rows are those of the ordered-set
   interpreter the row arrays replaced; a non-recursive stratum now takes
   one round instead of two, so unreachable_hubs.dl's top stratum counts
   one round fewer.  [dune runtest] runs in the build's test directory,
   [dune exec] from the project root. *)
let example_rows =
  [
    ("direct_flights.q", 2, 0, 2);
    ("hubs_or_castles.q", 3, 0, 3);
    ("non_hub_cities.q", 6, 0, 1);
    ("one_stop.q", 3, 0, 1);
    ("reachable.dl", 23, 3, 6);
    ("unreachable_hubs.dl", 33, 4, 3);
  ]

let test_example_rows_pinned () =
  let dir = List.find Sys.file_exists [ "../examples/queries"; "examples/queries" ] in
  let read f = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
  let db = Database.of_string (read "db.txt") in
  let shipped =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".q" || Filename.check_suffix f ".dl")
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "every example is pinned" shipped
    (List.map (fun (f, _, _, _) -> f) example_rows);
  with_tracing @@ fun () ->
  List.iter
    (fun (f, rows, rounds, answers) ->
      let q =
        if Filename.check_suffix f ".q" then Query.Fo (Parser.parse_query (read f))
        else Query.Dl (Parser.parse_program (read f))
      in
      Observe.reset ();
      let r = Query.eval db q in
      check_int (f ^ ": plan.rows") rows (counter_value "plan.rows");
      check_int (f ^ ": plan.fixpoint_rounds") rounds
        (counter_value "plan.fixpoint_rounds");
      check_int (f ^ ": answers") answers (Relation.cardinal r))
    example_rows

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bindings"
    [
      ( "bindings",
        qsuite [ prop_bindings_match_oracle ]
        @ [
            Alcotest.test_case "nullary sets, empty domain" `Quick
              test_nullary_and_empty_adom;
          ] );
      ( "fixpoint",
        qsuite [ prop_fixpoint_matches_oracle ]
        @ [
            Alcotest.test_case "whole-IDB reads" `Quick test_whole_idb_reads;
            Alcotest.test_case "plan.rows of the examples" `Quick
              test_example_rows_pinned;
          ] );
    ]
