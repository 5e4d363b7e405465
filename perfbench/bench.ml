(* The repository benchmark's measuring program.  One invocation runs
   one workload for one seed and prints a report followed, as its last
   line, by one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end ones, with --trace 1
   the per-layer ones.  Build and run it through perfbench/run.py. *)

module M = Measure

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("quality_ratio", "ratio");
  ]

let per_layer =
  [
    ("serve.wire_ms", "ms");
    ("serve.queue_ms", "ms");
    ("serve.exec_ms.topk", "ms");
    ("serve.exec_ms.count", "ms");
    ("serve.exec_ms.maxbound", "ms");
    ("serve.exec_ms.rpp", "ms");
    ("serve.exec_ms.eval", "ms");
    ("serve.exec_ms.analyze", "ms");
    ("serve.failed", "count");
    ("core.write_ms", "ms");
    ("core.candidates_ms", "ms");
    ("core.compat_prepare_ms", "ms");
    ("core.search_ms.topk", "ms");
    ("core.search_ms.count", "ms");
    ("core.oracle_nodes", "count/op");
    ("core.oracle_prunes", "count/op");
    ("core.compat_hit_ratio", "ratio");
    ("core.memo_kept_ratio", "count/write");
    ("core.paql_compile_ms", "ms");
    ("qlang.parse_ms", "ms");
    ("qlang.eval_ms.cq", "ms");
    ("qlang.eval_ms.ucq", "ms");
    ("qlang.eval_ms.efo_plus", "ms");
    ("qlang.eval_ms.fo", "ms");
    ("qlang.eval_ms.datalog_nr", "ms");
    ("qlang.eval_ms.datalog", "ms");
    ("qlang.plan_cache_hit_ratio", "ratio");
    ("qlang.delta_evals", "count/op");
    ("qlang.rows", "count/op");
    ("qlang.fixpoint_rounds", "count/op");
    ("relational.write_ms", "ms");
    ("relational.maintained", "count/write");
    ("relational.maintain_degraded", "count/write");
    ("solvers.pb_nodes", "count/op");
    ("solvers.pb_s", "s/op");
    ("sketch.solve_ms", "ms");
    ("sketch.sketch_s", "s/op");
    ("sketch.refine_s", "s/op");
    ("sketch.backtracks", "count/op");
    ("sketch.partitions_touched", "count/op");
    ("sketch.win_share.sketch_refine", "ratio");
    ("sketch.win_share.greedy", "ratio");
    ("sketch.win_share.singleton", "ratio");
    ("sketch.win_share.none", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let workloads = [ "serve-teams"; "churn-teams"; "paql-shapes" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-teams|churn-teams|paql-shapes --seed N \
     --seconds S --trace 0|1 --recommend PATH --work DIR";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  (workload, int "seed", float_of_int (int "seconds"), int "trace" = 1, get "recommend", get "work")

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %g" v)

let () =
  let workload, seed, seconds, trace, recommend, work = args () in
  (* a daemon that dies mid-request is a failed op, not a fatal signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* one solver domain: the load is the benchmark's own closed loop *)
  Parallel.Pool.set_domains_override (Some 1);
  Observe.set_enabled false;
  Sketch.install ();
  let result =
    try
      Fun.protect ~finally:Serve_teams.kill_all (fun () ->
          match workload with
          | "serve-teams" -> Serve_teams.run ~recommend ~work ~seed ~seconds ~trace
          | "churn-teams" -> Churn_teams.run ~seed ~seconds ~trace
          | _ -> Paql_shapes.run ~seed ~seconds ~trace)
    with
    | M.Percentile_refused msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 1
    | e ->
        prerr_endline ("perfbench: " ^ workload ^ " failed: " ^ Printexc.to_string e);
        exit 1
  in
  if trace then
    M.write_spans (Filename.concat work (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
  Printf.printf "workload %s seed %d trace %d\n" workload seed (if trace then 1 else 0);
  List.iter (fun line -> Printf.printf "  %s\n" line) result.Report.notes;
  List.iter
    (fun (name, n) -> Printf.printf "  samples %-28s %d\n" name n)
    result.Report.samples;
  let table, measured =
    if trace then (per_layer, result.Report.layers) else (end_to_end, result.Report.e2e)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match List.assoc_opt name measured with
          | Some v -> v
          | None ->
              Printf.printf "  %-32s not exercised by %s (0)\n" name workload;
              0.
        in
        Printf.printf "  %-32s %14.6f %s\n" name value unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (result.Report.failed = 0) result.Report.attempted result.Report.failed
    (String.concat ", " metrics)
