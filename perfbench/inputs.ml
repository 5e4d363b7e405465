(* Seeded inputs of the benchmark.  Everything the program receives —
   instance files, the serve request sequence, the churn mutation stream
   and the PaQL catalog and corpus — is generated here from the workload
   seed and rendered as text, so a run can print one digest that shows
   which inputs it measured. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Database = Relational.Database

let rng ~seed tag = Random.State.make [| 0x5eed; seed; tag |]
let digest text = Digest.to_hex (Digest.string text)

(* ------------------------------------------------------------------ *)
(* The team family                                                      *)
(* ------------------------------------------------------------------ *)

let skills = [| "backend"; "frontend"; "design"; "data" |]
let nexperts = 120
let nconflicts = 60
let onleave_schema = Schema.make "onleave" [ "eid"; "week" ]
let assignment_schema = Schema.make "assignment" [ "eid"; "project"; "hours" ]
let edge_schema = Schema.make "E" [ "src"; "dst" ]
let eid k = "e" ^ string_of_int k

let expert_tuple k ~salary ~score =
  Tuple.of_list
    [ Value.Str (eid k); Value.Str skills.(k mod 4); Value.Int salary; Value.Int score ]

let pair a b = Tuple.of_list [ Value.Str (eid a); Value.Str (eid b) ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [Workload.Teams.random_db]-shaped rosters with the seed's randomness
   where it does not change how much work a request is: skills are
   assigned round-robin (exactly a quarter of the experts are "backend",
   the selection's candidates), and within each skill the salaries
   (60..139) and scores (1..9) are fixed multisets that the seed
   shuffles over the experts.  The conflict pairs are drawn at random,
   half of them between two backend experts, where the compatibility
   constraint actually prunes packages. *)
let roster_relations rng =
  let per_skill = nexperts / 4 in
  let salaries = Array.init 4 (fun _ -> shuffle rng (Array.init per_skill (fun i -> 60 + (i * 80 / per_skill)))) in
  let scores = Array.init 4 (fun _ -> shuffle rng (Array.init per_skill (fun i -> 1 + (i mod 9)))) in
  let experts =
    List.init nexperts (fun k ->
        expert_tuple k ~salary:salaries.(k mod 4).(k / 4) ~score:scores.(k mod 4).(k / 4))
  in
  let seen = Hashtbl.create 64 in
  let rec conflict i =
    let pick () =
      if i mod 2 = 0 then 4 * Random.State.int rng per_skill
      else Random.State.int rng nexperts
    in
    let a = pick () and b = pick () in
    let a, b = (min a b, max a b) in
    if a = b || Hashtbl.mem seen (a, b) then conflict i
    else begin
      Hashtbl.add seen (a, b) ();
      pair a b
    end
  in
  let conflicts = List.init nconflicts conflict in
  (* two backend experts and two others are on leave: 28 candidates *)
  let onleave =
    List.map
      (fun k -> Tuple.of_list [ Value.Str (eid k); Value.Int (1 + Random.State.int rng 52) ])
      [ 4 * 3; 4 * 17; 1 + (4 * 5); 2 + (4 * 9) ]
  in
  [
    Relation.of_list Workload.Teams.expert_schema experts;
    Relation.of_list Workload.Teams.conflict_schema conflicts;
    Relation.of_list onleave_schema onleave;
  ]

let team_select =
  "Q(e, sk, sal, sc) := expert(e, sk, sal, sc) & sk = \"backend\" & not \
   (exists w. onleave(e, w))"

let team_compat =
  "Qc() := exists a, s1, c1, v1, b, s2, c2, v2. RQ(a, s1, c1, v1) & RQ(b, \
   s2, c2, v2) & conflict(a, b)"

(* ------------------------------------------------------------------ *)
(* serve-teams                                                          *)
(* ------------------------------------------------------------------ *)

(* Salary budgets of the loaded instances; with salaries in 60..139 they
   admit teams of two to four experts. *)
let serve_budgets = [| (230., 3); (270., 3); (310., 4); (230., 3); (270., 3); (310., 4) |]

(* Rows no query mentions: they make loading the files most of the
   daemon's set-up time. *)
let assignment_rows = 12_000

type serve = {
  files : (string * string) list;  (** wire name, instance-file text *)
  requests : string array;  (** the distinct request lines *)
  sequence : int array;  (** indexes into [requests], in send order *)
}

let instance_file_text rng ~budget ~size =
  let rels = roster_relations rng in
  let assignment =
    Workload.Random_db.relation_stream assignment_schema
      ~cardinality:assignment_rows (fun i ->
        Tuple.of_list
          [
            Value.Str (eid (Random.State.int rng nexperts));
            Value.Int i;
            Value.Int (1 + Random.State.int rng 40);
          ])
  in
  String.concat "\n"
    [
      "[database]";
      Database.to_string (Database.of_relations (assignment :: rels));
      "[select]";
      team_select;
      "";
      "[compat]";
      team_compat;
      "";
      "[cost]";
      "sum(2)";
      "";
      "[value]";
      "sum(3)";
      "";
      "[budget]";
      Printf.sprintf "%g" budget;
      "";
      "[size-bound]";
      Printf.sprintf "const %d" size;
      "";
    ]

(* Request classes and their weights.  The package-search verbs take
   milliseconds, and so does [eval] (the selection's negation ranges over
   the active domain, which the [assignment] rows enlarge); [analyze] is
   sub-millisecond and holds a twentieth of the mix, so it never holds
   the p50 or p90 rank. *)
let request_classes inst =
  [
    (6, [ "topk inst=" ^ inst ^ " k=1"; "topk inst=" ^ inst ^ " k=2"; "topk inst=" ^ inst ^ " k=3" ]);
    (4, [ "count inst=" ^ inst ^ " bound=18"; "count inst=" ^ inst ^ " bound=22" ]);
    (4, [ "maxbound inst=" ^ inst ^ " k=1"; "maxbound inst=" ^ inst ^ " k=2" ]);
    (4, [ "rpp inst=" ^ inst ^ " k=1"; "rpp inst=" ^ inst ^ " k=2" ]);
    (1, [ "eval inst=" ^ inst ]);
    (1, [ "analyze inst=" ^ inst ]);
  ]

(* Rounds of the request sequence.  A round holds, for every instance,
   each class as often as its weight says, cycling through the class's
   lines, in a seeded order: the mix is exact and the same for every
   seed, so the latency distribution, and where its percentiles fall,
   does not move with the seed's draws. *)
let serve_rounds = 34

let serve ~seed =
  let files =
    Array.to_list
      (Array.mapi
         (fun i (budget, size) ->
           (Printf.sprintf "t%d" i, instance_file_text (rng ~seed (10 + i)) ~budget ~size))
         serve_budgets)
  in
  let classes =
    List.concat_map (fun (name, _) -> request_classes name) files
  in
  let requests = Array.of_list (List.concat_map snd classes) in
  let index line =
    let rec go i = if requests.(i) = line then i else go (i + 1) in
    go 0
  in
  let round =
    Array.of_list
      (List.concat_map
         (fun (w, lines) -> List.init w (fun j -> index (List.nth lines (j mod List.length lines))))
         classes)
  in
  let r = rng ~seed 2 in
  let sequence =
    Array.concat (List.init serve_rounds (fun _ -> shuffle r (Array.copy round)))
  in
  { files; requests; sequence }

let serve_digest s =
  digest
    (String.concat "\n"
       (List.concat
          [
            List.concat_map (fun (n, t) -> [ n; t ]) s.files;
            Array.to_list (Array.map (fun i -> s.requests.(i)) s.sequence);
          ]))

(* ------------------------------------------------------------------ *)
(* churn-teams                                                          *)
(* ------------------------------------------------------------------ *)

let graph_nodes = 2_000
let graph_edges = 8_000
let churn_budget = 250.

type write = { rel : string; insert : bool; tuple : Tuple.t }

type read =
  | Topk of int
  | Count of float
  | Eval of string  (** a [churn_queries] name *)

type churn = {
  relations : (Schema.t * Tuple.t list) list;  (** the base database *)
  steps : (write * read) array;
}

let churn_length = 60_000

(* One query per language of the paper, over the team relations and the
   collaboration graph: name, language, text. *)
let churn_queries =
  [
    ( "cq",
      Qlang.Query.L_cq,
      "Q(a, b) := exists s1, c1, v1, s2, c2, v2. expert(a, s1, c1, v1) & \
       conflict(a, b) & expert(b, s2, c2, v2) & s1 = s2" );
    ( "ucq",
      Qlang.Query.L_ucq,
      "Q(a) := (exists b. conflict(a, b)) | (exists b. conflict(b, a))" );
    ( "efo_plus",
      Qlang.Query.L_efo_plus,
      "Q(a, b) := exists s, c, v. expert(a, s, c, v) & (conflict(a, b) | \
       conflict(b, a)) & (s = \"backend\" | s = \"data\")" );
    ( "fo",
      Qlang.Query.L_fo,
      "Q(e) := exists s, c, v. expert(e, s, c, v) & c <= 80 & not (exists \
       b. conflict(e, b) | conflict(b, e))" );
    ("datalog_nr", Qlang.Query.L_datalog_nr, "two(x, z) :- E(x, y), E(y, z), x < 40.\n?- two.");
    ("datalog", Qlang.Query.L_datalog, "R(y) :- E(x, y), x < 3.\nR(y) :- R(x), E(x, y).\n?- R.");
  ]

let churn_query name =
  let _, lang, text = List.find (fun (n, _, _) -> n = name) churn_queries in
  match lang with
  | Qlang.Query.L_datalog_nr | Qlang.Query.L_datalog ->
      Qlang.Query.Dl (Qlang.Parser.parse_program text)
  | _ -> Qlang.Query.Fo (Qlang.Parser.parse_query text)

(* One round of reads, twelve of them.  Each percentile rank lies inside
   one class's latencies, not at the edge between two, where it would
   move with either: Datalog reachability, the slowest read, comes twice
   (ranks 10-11, around p90), and the two-hop DATALOGnr read three times
   (ranks 4-6 of the class medians ucq < cq < efo_plus < fo < datalog_nr
   < count < topk < datalog, around p50). *)
let churn_reads =
  Array.of_list
    ([ Topk 1; Topk 2; Count 20. ]
    @ List.map (fun (name, _, _) -> Eval name) churn_queries
    @ [ Eval "datalog_nr"; Eval "datalog_nr"; Eval "datalog" ])

let int_tuple a b = Tuple.of_list [ Value.Int a; Value.Int b ]

(* The mutation stream is generated against a model of the current tuple
   sets, so every insert adds an absent tuple and every delete removes a
   present one, and relation sizes stay within a few tuples of the base. *)
let churn ~seed =
  let base_rng = rng ~seed 20 in
  let team = roster_relations base_rng in
  let edges = Hashtbl.create graph_edges in
  while Hashtbl.length edges < graph_edges do
    let a = Random.State.int base_rng graph_nodes
    and b = Random.State.int base_rng graph_nodes in
    if a <> b then Hashtbl.replace edges (a, b) ()
  done;
  let edge_list =
    List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges [])
  in
  let graph =
    Relation.of_list edge_schema (List.map (fun (a, b) -> int_tuple a b) edge_list)
  in
  let r = rng ~seed 21 in
  (* live sets, as arrays with swap-remove for O(1) random deletes *)
  let pool_of l = (ref (Array.of_list l), ref (List.length l)) in
  let take (arr, n) i =
    let x = !arr.(i) in
    !arr.(i) <- !arr.(!n - 1);
    decr n;
    x
  in
  let push (arr, n) x =
    if !n = Array.length !arr then
      arr := Array.append !arr (Array.make (max 16 !n) x);
    !arr.(!n) <- x;
    incr n
  in
  let experts = pool_of (Relation.to_list (List.nth team 0)) in
  let conflicts = pool_of (Relation.to_list (List.nth team 1)) in
  let graph_live = pool_of edge_list in
  (* Every relation alternates delete and insert, so its size stays
     within one tuple of the base; a deleted expert comes back under a new
     id with the same skill, salary and score, so the candidate pool the
     package search sees keeps its size and cost profile. *)
  let deleting = Hashtbl.create 3 in
  let delete_next rel =
    let d = not (Option.value (Hashtbl.find_opt deleting rel) ~default:false) in
    Hashtbl.replace deleting rel d;
    d
  in
  let next_eid = ref nexperts and replaced = ref None in
  let expert_write () =
    if delete_next "expert" then begin
      let t = take experts (Random.State.int r !(snd experts)) in
      replaced := Some t;
      { rel = "expert"; insert = false; tuple = t }
    end
    else begin
      let old = Option.get !replaced in
      let skill = Value.str_exn (Tuple.get old 1) in
      let rec fresh k = if skills.(k mod 4) = skill then k else fresh (k + 1) in
      let k = fresh !next_eid in
      next_eid := k + 1;
      let t =
        expert_tuple k
          ~salary:(Value.int_exn (Tuple.get old 2))
          ~score:(Value.int_exn (Tuple.get old 3))
      in
      push experts t;
      { rel = "expert"; insert = true; tuple = t }
    end
  in
  let conflict_write () =
    if delete_next "conflict" then
      { rel = "conflict"; insert = false; tuple = take conflicts (Random.State.int r !(snd conflicts)) }
    else begin
      let live = !(snd experts) in
      let rec fresh () =
        let ea = Tuple.get !(fst experts).(Random.State.int r live) 0
        and eb = Tuple.get !(fst experts).(Random.State.int r live) 0 in
        let t = Tuple.of_list [ ea; eb ] in
        let present = ref false in
        for i = 0 to !(snd conflicts) - 1 do
          if Tuple.equal !(fst conflicts).(i) t then present := true
        done;
        if Value.equal ea eb || !present then fresh () else t
      in
      let t = fresh () in
      push conflicts t;
      { rel = "conflict"; insert = true; tuple = t }
    end
  in
  let graph_write () =
    if delete_next "E" then begin
      let a, b = take graph_live (Random.State.int r !(snd graph_live)) in
      Hashtbl.remove edges (a, b);
      { rel = "E"; insert = false; tuple = int_tuple a b }
    end
    else begin
      let rec fresh () =
        let a = Random.State.int r graph_nodes and b = Random.State.int r graph_nodes in
        if a = b || Hashtbl.mem edges (a, b) then fresh () else (a, b)
      in
      let a, b = fresh () in
      Hashtbl.replace edges (a, b) ();
      push graph_live (a, b);
      { rel = "E"; insert = true; tuple = int_tuple a b }
    end
  in
  (* Every three steps write each relation once and every twelve steps
     make one round of reads, each in a seeded order, so the op mix is the same
     for every seed and only the order and the tuples differ. *)
  let nreads = Array.length churn_reads in
  let shuffled n = shuffle r (Array.init n Fun.id) in
  let steps = ref [] and writes = ref [||] and reads = ref [||] in
  for i = 0 to churn_length - 1 do
    if i mod 3 = 0 then writes := shuffled 3;
    if i mod nreads = 0 then reads := shuffled nreads;
    let w =
      match !writes.(i mod 3) with
      | 0 -> expert_write ()
      | 1 -> conflict_write ()
      | _ -> graph_write ()
    in
    steps := (w, churn_reads.(!reads.(i mod nreads))) :: !steps
  done;
  let steps = Array.of_list (List.rev !steps) in
  {
    relations =
      List.map (fun rel -> (Relation.schema rel, Relation.to_list rel)) (team @ [ graph ]);
    steps;
  }

let read_to_string = function
  | Topk k -> Printf.sprintf "topk k=%d" k
  | Count b -> Printf.sprintf "count bound=%g" b
  | Eval name -> "eval " ^ name

let write_to_string w =
  Printf.sprintf "%s %s %s"
    (if w.insert then "insert" else "delete")
    w.rel (Tuple.to_string w.tuple)

let churn_digest c =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (schema, tuples) ->
      Buffer.add_string buf
        (Database.to_string (Database.of_relations [ Relation.of_list schema tuples ])))
    c.relations;
  Array.iter
    (fun (w, r) ->
      Buffer.add_string buf (write_to_string w);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (read_to_string r);
      Buffer.add_char buf '\n')
    c.steps;
  digest (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* paql-shapes                                                          *)
(* ------------------------------------------------------------------ *)

(* Several independent catalogs: SketchRefine's partitions are shared by
   every query on one catalog, so its successes and failures correlate
   within a catalog; spreading the corpus over many catalogs keeps one
   unlucky catalog from moving the run. *)
let catalogs = 24
let catalog_rows = 3_000
let catalog_schema = Schema.make "R" [ "id"; "cost"; "val"; "w" ]

type paql = {
  catalogs : int array array array;
      (** per catalog, [| id; cost; val; w |] per tuple *)
  corpus : (string * int * string) array;  (** shape name, catalog, PaQL text *)
}

(* WHERE clauses at three selectivities: all tuples, about half, about a
   fifth. *)
let wheres = [| ("all", None); ("half", Some ("val", 50, `Ge)); ("fifth", Some ("w", 10, `Le)) |]

(* The SUM band's own selectivity, about a 25th of the tuples. *)
let band_where = ("25th", Some ("w", 2, `Le))

(* The SUM-band query on which SketchRefine returned no package in the
   prototype; kept verbatim, it is feasible on every generated catalog
   (see [band_witness]). *)
let fixed_band =
  "SELECT PACKAGE(P) FROM R WHERE val >= 20 SUCH THAT SUM(cost) >= 30 AND \
   SUM(cost) <= 40 AND COUNT(*) <= 6 MAXIMIZE SUM(val)"

let keeps where row =
  match where with
  | None -> true
  | Some ("val", t, `Ge) -> row.(2) >= t
  | Some ("w", t, `Le) -> row.(3) <= t
  | Some _ -> assert false

let where_text = function
  | None -> ""
  | Some (col, t, `Ge) -> Printf.sprintf " WHERE %s >= %d" col t
  | Some (col, t, `Le) -> Printf.sprintf " WHERE %s <= %d" col t

(* Each query is derived from a witness package drawn from the tuples
   its WHERE clause keeps, with every bound set so that the witness
   satisfies it: the corpus is feasible by construction. *)
let shape_query r rows shape where =
  let eligible = List.filter (keeps where) (Array.to_list rows) |> Array.of_list in
  let k = 3 + Random.State.int r 4 in
  let witness = Array.init k (fun _ -> eligible.(Random.State.int r (Array.length eligible))) in
  (* distinct tuples: redraw duplicates deterministically *)
  let witness =
    let seen = Hashtbl.create 8 in
    Array.map
      (fun row ->
        let rec fresh row =
          if Hashtbl.mem seen row.(0) then
            fresh eligible.(Random.State.int r (Array.length eligible))
          else (Hashtbl.add seen row.(0) (); row)
        in
        fresh row)
      witness
  in
  let sum c = Array.fold_left (fun acc row -> acc + row.(c)) 0 witness in
  let minc c = Array.fold_left (fun acc row -> min acc row.(c)) max_int witness in
  let maxc c = Array.fold_left (fun acc row -> max acc row.(c)) min_int witness in
  let body =
    match shape with
    | "knapsack" ->
        Printf.sprintf "SUM(cost) <= %d AND COUNT(*) <= %d MAXIMIZE SUM(val)" (sum 1) k
    | "two-sums" ->
        Printf.sprintf "SUM(cost) <= %d AND SUM(w) <= %d MAXIMIZE SUM(val)" (sum 1) (sum 3)
    | "band" ->
        Printf.sprintf
          "SUM(cost) >= %d AND SUM(cost) <= %d AND COUNT(*) <= %d MAXIMIZE SUM(val)"
          (sum 1 - 2) (sum 1 + 2) k
    | "min-max" ->
        Printf.sprintf
          "SUM(cost) <= %d AND COUNT(*) <= %d AND MIN(w) <= %d AND MAX(w) <= %d \
           MAXIMIZE SUM(val)"
          (sum 1) k (minc 3) (maxc 3)
    | "minimize" ->
        Printf.sprintf "SUM(val) >= %d AND COUNT(*) <= %d MINIMIZE SUM(cost)" (sum 2) k
    | _ -> assert false
  in
  Printf.sprintf "SELECT PACKAGE(P) FROM R%s SUCH THAT %s" (where_text where) body

let split_shape name =
  match String.index_opt name '/' with
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> (name, "")

let shapes = [| "knapsack"; "two-sums"; "band"; "min-max"; "minimize" |]

(* Four tuples with val >= 20 and cost 8 or 9 make [fixed_band]
   feasible (cost sum 32..36). *)
let band_witness rows =
  Array.fold_left
    (fun n row -> if row.(2) >= 20 && row.(1) >= 8 then n + 1 else n)
    0 rows
  >= 4

let paql ~seed =
  let r = rng ~seed 30 and q = rng ~seed 31 in
  let catalog () =
    Array.init catalog_rows (fun i ->
        [| i; 1 + Random.State.int r 9; Random.State.int r 100; 1 + Random.State.int r 50 |])
  in
  let cats = Array.init catalogs (fun _ -> catalog ()) in
  (* Per catalog: two queries of every shape at every selectivity,
     except the SUM band.  On a band SketchRefine either succeeds fast or
     backtracks and returns nothing, seemingly at random, and the
     backtracking grows with the candidate count, so a run's time would
     swing with how many bands failed: the band appears once per catalog
     at its own selectivity of about a 25th, and as the fixed query
     (about 80 % of the tuples, 0.07-1.7 s) on the first catalog only. *)
  let corpus =
    List.concat
      (List.init catalogs (fun k ->
           let rows = cats.(k) in
           let query shape (sel, where) = (shape ^ "/" ^ sel, k, shape_query q rows shape where) in
           (if k = 0 then begin
              if not (band_witness rows) then failwith "paql inputs: fixed band query infeasible";
              [ ("band/fixed", k, fixed_band) ]
            end
            else [])
           @ (Array.to_list shapes
             |> List.concat_map (fun shape ->
                    if shape = "band" then [ query shape band_where ]
                    else
                      Array.to_list wheres
                      |> List.concat_map (fun w -> [ query shape w; query shape w ])))))
  in
  { catalogs = cats; corpus = Array.of_list corpus }

let catalog_tuples rows =
  Array.map (fun row -> Tuple.of_list (Array.to_list (Array.map (fun v -> Value.Int v) row))) rows

let paql_digest p =
  let buf = Buffer.create (1 lsl 20) in
  Array.iteri
    (fun k rows ->
      Buffer.add_string buf (Printf.sprintf "catalog %d\n" k);
      Array.iter
        (fun row ->
          Buffer.add_string buf (String.concat "," (Array.to_list (Array.map string_of_int row)));
          Buffer.add_char buf '\n')
        rows)
    p.catalogs;
  Array.iter
    (fun (shape, k, text) -> Buffer.add_string buf (Printf.sprintf "%s %d %s\n" shape k text))
    p.corpus;
  digest (Buffer.contents buf)
