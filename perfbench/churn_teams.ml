(* churn-teams: one process, a closed loop of write-then-read ops over a
   team instance whose database also holds a collaboration graph.  The
   writes invalidate memos and re-key the plan cache, so incremental
   maintenance, compat delta evaluation and the plan interpreter do the
   work.  After the timed phase a deterministic sample of steps is
   re-answered on a database rebuilt from scratch. *)

module I = Perfbench_inputs.Inputs
module M = Measure
module Relation = Relational.Relation
module Database = Relational.Database
module Tuple = Relational.Tuple
module Instance = Core.Instance

let make_instance db =
  Instance.make ~db
    ~select:(Qlang.Query.Fo (Qlang.Parser.parse_query I.team_select))
    ~compat:(Instance.Compat_query (Qlang.Query.Fo (Qlang.Parser.parse_query I.team_compat)))
    ~cost:(Core.Rating_expr.to_rating (Core.Rating_expr.parse "sum(2)"))
    ~value:(Core.Rating_expr.to_rating (Core.Rating_expr.parse "sum(3)"))
    ~budget:I.churn_budget ~size_bound:(Core.Size_bound.Const 3) ()

let build (relations : (Relational.Schema.t * Tuple.t list) list) =
  Database.of_relations (List.map (fun (schema, tuples) -> Relation.of_list schema tuples) relations)

let queries = List.map (fun (name, _, _) -> (name, I.churn_query name)) I.churn_queries

let render_packages = function
  | None -> "none"
  | Some pkgs -> String.concat "; " (List.map Core.Package.to_string pkgs)

let render_relation rel =
  String.concat "; " (List.map Tuple.to_string (Relation.to_list rel))

(* Answer one read.  The candidate and compat-delta calls come first in
   every run, so the search call after them finds the memos filled. *)
let read inst = function
  | I.Topk k ->
      ignore (M.span "core.candidates" (fun () -> Instance.candidates inst));
      ignore (M.span "core.compat_prepare" (fun () -> Instance.compat_delta inst));
      render_packages (M.span "core.search.topk" (fun () -> Core.Dispatch.topk inst ~k))
  | I.Count bound ->
      ignore (M.span "core.candidates" (fun () -> Instance.candidates inst));
      ignore (M.span "core.compat_prepare" (fun () -> Instance.compat_delta inst));
      string_of_int (M.span "core.search.count" (fun () -> Core.Dispatch.count inst ~bound))
  | I.Eval name ->
      let q = List.assoc name queries in
      render_relation
        (M.span ("qlang.eval." ^ name) (fun () -> Qlang.Engine.eval inst.Instance.db q))

let write inst (w : I.write) =
  match w.I.rel with
  | "E" ->
      let db =
        M.span "relational.write" (fun () ->
            (if w.I.insert then Database.insert_tuple else Database.delete_tuple)
              "E" w.I.tuple inst.Instance.db)
      in
      M.span "core.write" (fun () -> Instance.update_db inst db)
  | rel ->
      M.span "core.write" (fun () ->
          (if w.I.insert then Instance.insert_tuple else Instance.delete_tuple) inst rel w.I.tuple)

(* Steps whose answers are re-checked: every [sample_every]-th, at most
   [max_samples] of them. *)
let sample_every = 97
let max_samples = 40
let sampled step = step mod sample_every = 0 && step / sample_every < max_samples

type phase = {
  latencies : float array;  (** wall ms per op *)
  starts : float array;  (** start time per op *)
  clock : M.phase;
  errors : int;  (** ops that raised *)
  writes : int;
}

(* Run steps from [first] until [seconds] pass; returns the phase, the
   instance after it and the next step.  The reference kernel is timed
   between ops. *)
let timed_loop (c : I.churn) inst ~first ~seconds ~answers =
  let lat = ref [] and starts = ref [] and errors = ref 0 and writes = ref 0 in
  let inst = ref inst and step = ref first in
  let calib0 = !M.calib_s in
  let start = M.now () in
  let deadline = start +. seconds in
  while M.now () < deadline && !step < Array.length c.I.steps do
    let w, r = c.I.steps.(!step) in
    M.current_op := !step;
    M.tick ();
    let t0 = M.now () in
    (match
       let i = write !inst w in
       incr writes;
       inst := i;
       read i r
     with
    | answer -> if sampled !step then Hashtbl.replace answers !step answer
    | exception _ -> incr errors);
    lat := ((M.now () -. t0) *. 1000.) :: !lat;
    starts := t0 :: !starts;
    incr step
  done;
  ( {
      latencies = Array.of_list (List.rev !lat);
      starts = Array.of_list (List.rev !starts);
      clock = M.phase_from start calib0;
      errors = !errors;
      writes = !writes;
    },
    !inst,
    !step )

(* Replay the stream on a tuple-set model and re-answer every sampled
   step on a database built from scratch with a fresh [Instance.make]. *)
let verify (c : I.churn) ~upto ~answers =
  let model = Hashtbl.create 8 in
  List.iter
    (fun (schema, tuples) ->
      let set = Hashtbl.create 1024 in
      List.iter (fun t -> Hashtbl.replace set (Tuple.to_string t) t) tuples;
      Hashtbl.replace model schema.Relational.Schema.name (schema, set))
    c.I.relations;
  let mismatches = ref 0 and checked = ref 0 in
  for step = 0 to upto - 1 do
    let w, r = c.I.steps.(step) in
    let _, set = Hashtbl.find model w.I.rel in
    let key = Tuple.to_string w.I.tuple in
    if w.I.insert then Hashtbl.replace set key w.I.tuple else Hashtbl.remove set key;
    match Hashtbl.find_opt answers step with
    | None -> ()
    | Some got ->
        incr checked;
        let relations =
          List.map
            (fun (schema, _) ->
              let _, set = Hashtbl.find model schema.Relational.Schema.name in
              (schema, Hashtbl.fold (fun _ t acc -> t :: acc) set []))
            c.I.relations
        in
        let fresh = make_instance (build relations) in
        if read fresh r <> got then incr mismatches
  done;
  (!checked, !mismatches)

let setup_repeats = 21

let observed f =
  Observe.reset ();
  Observe.set_enabled true;
  let r = f () in
  Observe.set_enabled false;
  (r, Observe.snapshot ())

let run ~seed ~seconds ~trace =
  let c = I.churn ~seed in
  let notes = ref [ Printf.sprintf "inputs digest %s (%d-step stream)" (I.churn_digest c) (Array.length c.I.steps) ] in
  let note s = notes := s :: !notes in
  let setups = Array.make setup_repeats 0. and starts = Array.make setup_repeats 0. in
  let inst = ref None in
  for r = 0 to setup_repeats - 1 do
    inst := None;
    (* a minor collection only: on OCaml 5.1 every forced major cycle
       here raised the timed phase's peak RSS by about 16 MiB *)
    Gc.minor ();
    M.calibrate ();
    let t0 = M.now () in
    starts.(r) <- t0;
    let i = make_instance (build c.I.relations) in
    Instance.prewarm i;
    setups.(r) <- M.now () -. t0;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let answers = Hashtbl.create 64 in
  let finish ~phases ~next ~e2e ~layers ~samples =
    let checked, mismatches = verify c ~upto:next ~answers in
    let errors = List.fold_left (fun n p -> n + p.errors) 0 phases in
    let attempted = List.fold_left (fun n p -> n + Array.length p.latencies) 0 phases in
    note (Printf.sprintf "re-answered %d sampled steps on rebuilt databases: %d mismatches; %d ops raised" checked mismatches errors);
    {
      Report.attempted;
      failed = errors + mismatches;
      e2e = e2e ~failed:(errors + mismatches) ~attempted;
      layers;
      samples;
      notes = List.rev !notes;
    }
  in
  if not trace then begin
    let p, _, next = timed_loop c inst ~first:0 ~seconds ~answers in
    (* before the answer checks, whose rebuilt databases are not the
       workload's memory *)
    let rss = M.self_peak_rss_mb () in
    let c = M.calibration () in
    let lat = M.scaled c ~starts:p.starts p.latencies in
    note (M.setup_note c ~starts setups);
    note (Printf.sprintf "latency samples %d" (Array.length lat));
    note (M.raw_note c p.clock ~ops:(Array.length lat) p.latencies);
    finish ~phases:[ p ] ~next
      ~e2e:(fun ~failed ~attempted ->
        [
          ("ops_per_s", float_of_int (Array.length lat) /. M.scaled_wall c p.clock);
          ("op_p50_ms", M.percentile ~what:"op latency" lat 50.);
          ("op_p90_ms", M.percentile ~what:"op latency" lat 90.);
          ("setup_s", M.median (M.scaled c ~starts setups));
          ("peak_rss_mb", rss);
          ("quality_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
        ])
      ~layers:[] ~samples:[ ("op latency", Array.length lat) ]
  end
  else begin
    let half = seconds /. 2. in
    let pa, inst, next = timed_loop c inst ~first:0 ~seconds:half ~answers in
    M.tracing := true;
    let (pb, _, next), snap =
      observed (fun () -> timed_loop c inst ~first:next ~seconds:half ~answers)
    in
    M.tracing := false;
    let self = M.self_ms () in
    let ops = float_of_int (max 1 (Array.length pb.latencies)) in
    let writes = float_of_int (max 1 pb.writes) in
    let count = M.count snap in
    let ratio a b = if a +. b > 0. then a /. (a +. b) else 0. in
    let timings =
      [
        ("core.write_ms", self "core.write");
        ("relational.write_ms", self "relational.write");
        ("core.candidates_ms", self "core.candidates");
        ("core.compat_prepare_ms", self "core.compat_prepare");
        ("core.search_ms.topk", self "core.search.topk");
        ("core.search_ms.count", self "core.search.count");
      ]
      @ List.map (fun (name, _) -> ("qlang.eval_ms." ^ name, self ("qlang.eval." ^ name))) queries
    in
    let c = M.calibration () in
    let qps p = float_of_int (Array.length p.latencies) /. M.scaled_wall c p.clock in
    finish ~phases:[ pa; pb ] ~next
      ~e2e:(fun ~failed:_ ~attempted:_ -> [])
      ~layers:
        (Report.p50s timings
        @ [
            ("core.oracle_nodes", count "oracle.nodes" /. ops);
            ("core.oracle_prunes", count "oracle.prunes" /. ops);
            ("core.compat_hit_ratio", ratio (count "memo.compat_hit") (count "memo.compat_miss"));
            ( "core.memo_kept_ratio",
              (count "memo.candidates_kept" +. count "memo.compat_kept") /. writes );
            ("qlang.plan_cache_hit_ratio", ratio (count "plan.cache_hit") (count "plan.cache_miss"));
            ("qlang.delta_evals", count "plan.delta_evals" /. ops);
            ("qlang.rows", count "plan.rows" /. ops);
            ("qlang.fixpoint_rounds", count "plan.fixpoint_rounds" /. ops);
            ("relational.maintained", count "rel.maintained" /. writes);
            ("relational.maintain_degraded", count "rel.maintain_degraded" /. writes);
            ("trace.overhead_ratio", qps pa /. qps pb);
          ])
      ~samples:(List.map (fun (name, a) -> (name, Array.length a)) timings)
  end
