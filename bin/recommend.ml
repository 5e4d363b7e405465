(* recommend — a command-line front end for the package-recommendation
   library.

   Databases are text files in the Relational.Database.of_string format;
   queries are strings (or files) in the Qlang.Parser syntax, either
   FO-style ("Q(x, y) := R(x, y) & x < 3") or Datalog programs
   ("T(x,y) :- E(x,y). ..."). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_db path = Relational.Database.of_string (read_file path)

(* Query arguments are inline text unless prefixed with '@', which reads
   the named file.  The old behaviour — any argument naming an existing
   file was silently read from disk — made queries change meaning when a
   same-named file appeared; it survives as a deprecated fallback with a
   warning. *)
let read_query_text text =
  if String.length text > 0 && text.[0] = '@' then
    read_file (String.sub text 1 (String.length text - 1))
  else if Sys.file_exists text then begin
    Printf.eprintf
      "recommend: warning: reading the query from file %s because it \
       exists; this fallback is deprecated, write @%s to read a file or \
       quote the inline text\n\
       %!"
      text text;
    read_file text
  end
  else text

let parse_query ~datalog text =
  let text = read_query_text text in
  if datalog then Qlang.Query.Dl (Qlang.Parser.parse_program text)
  else Qlang.Query.Fo (Qlang.Parser.parse_query text)

(* Rating functions: either the legacy colon specs (count | card |
   sum:<col> | negsum:<col> | min:<col> | max:<col> | const:<x>) or a full
   Core.Rating_expr expression such as "2*count - sum(1)". *)
let parse_rating spec =
  match String.split_on_char ':' spec with
  | [ "count" ] -> Core.Rating.count
  | [ "card" ] -> Core.Rating.card_or_infinite
  | [ "sum"; col ] -> Core.Rating.sum_col ~nonneg:true (int_of_string col)
  | [ "negsum"; col ] -> Core.Rating.neg (Core.Rating.sum_col (int_of_string col))
  | [ "min"; col ] -> Core.Rating.min_col (int_of_string col)
  | [ "max"; col ] -> Core.Rating.max_col (int_of_string col)
  | [ "const"; x ] -> Core.Rating.const (float_of_string x)
  | _ -> Core.Rating_expr.to_rating (Core.Rating_expr.parse spec)

(* ---- tracing ---- *)

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print a per-stage telemetry report (counters and timers from the \
           observe layer) after the command finishes.")

let trace_json_flag =
  Arg.(
    value & flag
    & info [ "trace-json" ]
        ~doc:
          "Like $(b,--trace), but emit the report as a single JSON object \
           on the last line of stdout.")

type tracer = {
  t_on : bool;
  t_json : bool;
  mutable t_stages : (string * Observe.snapshot) list; (* diffs, reversed *)
  mutable t_mark : Observe.snapshot;
}

let make_tracer trace json =
  let on = trace || json in
  if on then begin
    Observe.set_enabled true;
    Observe.reset ()
  end;
  {
    t_on = on;
    t_json = json;
    t_stages = [];
    t_mark = (if on then Observe.snapshot () else []);
  }

let stage tr name f =
  if not tr.t_on then f ()
  else begin
    let r = f () in
    let now = Observe.snapshot () in
    tr.t_stages <- (name, Observe.diff tr.t_mark now) :: tr.t_stages;
    tr.t_mark <- now;
    r
  end

(* A fixed pigeonhole formula (3 pigeons, 2 holes — UNSAT) and a small
   satisfiable companion.  Run as the report's calibration stage: the
   recommendation pipeline itself only reaches the DPLL solver through
   the reduction constructions, so a traced run exercises the solver
   telemetry on a known input instead of reporting dead zeros, and the
   per-event cost can be judged against the fixed decision/conflict
   counts. *)
let calibration_cnfs () =
  let php_3_2 =
    (* vars: pigeon i in hole j = (i-1)*2 + j *)
    Solvers.Cnf.make ~nvars:6
      [
        [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ];
        [ -1; -3 ]; [ -1; -5 ]; [ -3; -5 ];
        [ -2; -4 ]; [ -2; -6 ]; [ -4; -6 ];
      ]
  in
  let sat_small =
    Solvers.Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ]; [ 2; 3 ] ]
  in
  [ php_3_2; sat_small ]

let finish_trace tr =
  if tr.t_on then begin
    stage tr "solver-calibration" (fun () ->
        List.iter (fun f -> ignore (Solvers.Sat.solve f)) (calibration_cnfs ()));
    let total = Observe.snapshot () in
    let stages = List.rev tr.t_stages in
    if tr.t_json then begin
      let stage_json (name, s) =
        Printf.sprintf "{\"stage\": \"%s\", \"counters\": %s}" name
          (Observe.to_json (Observe.nonzero s))
      in
      Printf.printf "{\"stages\": [%s], \"total\": %s}\n"
        (String.concat ", " (List.map stage_json stages))
        (Observe.to_json (Observe.nonzero total))
    end
    else begin
      print_newline ();
      print_endline "--- telemetry ---";
      List.iter
        (fun (name, s) ->
          let s = Observe.nonzero s in
          if s <> [] then begin
            Printf.printf "stage %s:\n" name;
            print_string (Observe.to_text s)
          end)
        stages;
      print_endline "total:";
      print_string (Observe.to_text total)
    end
  end

(* A fault armed by PKG_FAULT that escapes a command as an exception is
   reported on one stderr line and exits 3: neither a partial (124) nor a
   crash (125). *)
let fault_exit = ref false

let traced trace json stages_f =
  let tr = make_tracer trace json in
  Fun.protect ~finally:(fun () -> finish_trace tr) (fun () ->
      try stages_f tr
      with Robust.Fault.Injected site ->
        fault_exit := true;
        Printf.eprintf "recommend: injected fault at %s\n%!" site)

(* ---- budgets ---- *)

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget in seconds; when it expires the command \
           reports its best partial result on stderr and exits 124.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Work budget: the number of cooperative budget checks allowed \
           (solver conflicts, search nodes, join rows...); on exhaustion \
           the command reports its best partial result on stderr and \
           exits 124.")

let make_budget timeout fuel =
  match (timeout, fuel) with
  | None, None -> None
  | deadline, fuel -> Some (Robust.Budget.make ?deadline ?fuel ())

(* Distinguishes "no package exists" (exit 0, a definite answer) from
   "budget exhausted" for scripts: any command ending on a [Partial]
   outcome exits 124 after printing a one-line stderr summary. *)
let partial_exit = ref false

let report_partial ~what reason work_done =
  partial_exit := true;
  Printf.eprintf
    "recommend: %s: budget exhausted (%s) after %d checks; result below is \
     partial\n\
     %!"
    what
    (Robust.Budget.reason_to_string reason)
    work_done

(* ---- plan explanation ---- *)

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the compiled physical plan — estimated vs actual row \
           counts per node, and the advisor's shape certificate — before \
           the results.")

let explain_query ?dist ~what db q =
  let plan = Qlang.Query.plan db q in
  Format.printf "--- plan: %s ---@." what;
  print_string (Qlang.Engine.explain ?dist db q);
  Format.printf "%s@."
    (Analysis.Advisor.certificate_to_string
       (Analysis.Plan_check.certify q plan));
  let diags = Analysis.Plan_check.check ~db ~query:q plan in
  let errors = List.filter Analysis.Diagnostic.is_error diags in
  if errors <> [] then
    Format.printf "plan check: FAILED@.%a@." Analysis.Diagnostic.pp_list errors
  else begin
    let summary = Analysis.Effects.summarize plan in
    Format.printf "plan check: ok — typed, budget-covered, %s@.---@."
      (Analysis.Effects.verdict_to_string summary.Analysis.Effects.verdict)
  end

(* Explaining an instance covers both halves of the oracle: the selection
   query over D and the compatibility query over D extended with an empty
   package relation (the environment Validity evaluates it in). *)
let explain_instance (inst : Core.Instance.t) =
  explain_query ~dist:inst.Core.Instance.dist ~what:"selection"
    inst.Core.Instance.db inst.Core.Instance.select;
  match inst.Core.Instance.compat with
  | Core.Instance.Compat_query qc when not (Qlang.Query.is_empty_query qc) ->
      let db' =
        Relational.Database.add
          (Relational.Relation.empty (Core.Instance.answer_schema inst))
          inst.Core.Instance.db
      in
      explain_query ~dist:inst.Core.Instance.dist
        ~what:"compatibility (over D + empty RQ)" db' qc
  | _ -> ()

(* Common arguments. *)
let db_arg =
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "db" ] ~docv:"FILE" ~doc:"Database file (textual format).")

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "query"; "q" ] ~docv:"QUERY"
        ~doc:"Selection query: inline text, or @FILE to read a file.")

let datalog_flag =
  Arg.(value & flag & info [ "datalog" ] ~doc:"Parse the query as a Datalog program.")

let compat_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "compat" ] ~docv:"QUERY"
        ~doc:"Compatibility constraint Qc (inline text or @FILE; FO syntax).")

let cost_arg =
  Arg.(
    value & opt string "card"
    & info [ "cost" ] ~docv:"SPEC"
        ~doc:"Cost function: count | card | sum:<col> | const:<x>.")

let value_arg =
  Arg.(
    value & opt string "count"
    & info [ "value" ] ~docv:"SPEC"
        ~doc:"Rating function: count | sum:<col> | negsum:<col> | const:<x>.")

let budget_arg =
  Arg.(value & opt float 1. & info [ "budget"; "C" ] ~docv:"C" ~doc:"Cost budget.")

let k_arg = Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Number of packages.")

let bound_arg =
  Arg.(value & opt float 0. & info [ "bound"; "B" ] ~docv:"B" ~doc:"Rating bound.")

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-size" ] ~docv:"N" ~doc:"Constant package-size bound (Corollary 6.1).")

let make_instance db select compat cost value budget size =
  let compat =
    match compat with
    | None -> Core.Instance.No_constraint
    | Some text ->
        Core.Instance.Compat_query (parse_query ~datalog:false text)
  in
  let size_bound =
    match size with
    | None -> Core.Size_bound.linear
    | Some n -> Core.Size_bound.Const n
  in
  Core.Instance.make ~db ~select ~compat ~cost:(parse_rating cost)
    ~value:(parse_rating value) ~budget ~size_bound ()

(* ---- eval ---- *)

let eval_cmd =
  let run db query datalog explain timeout fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let db = load_db db in
    let q = parse_query ~datalog query in
    if explain then explain_query ~what:"query" db q;
    let budget = make_budget timeout fuel in
    match
      stage tr "eval" (fun () ->
          Robust.Budget.run ?budget
            ~partial:(fun _ -> None)
            (fun () -> Qlang.Query.eval db q))
    with
    | Robust.Budget.Exact answers ->
        Format.printf "%a@.(%d tuples, language %s)@." Relational.Relation.pp
          answers
          (Relational.Relation.cardinal answers)
          (Qlang.Query.lang_to_string (Qlang.Query.language q))
    | Robust.Budget.Partial { reason; work_done; _ } ->
        report_partial ~what:"eval" reason work_done;
        Format.printf "query evaluation interrupted; no answers@."
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate a query against a database.")
    Term.(
      const run $ db_arg $ query_arg $ datalog_flag $ explain_flag
      $ timeout_arg $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- topk ---- *)

let print_packages inst packages =
  List.iteri
    (fun i pkg ->
      Format.printf "#%d rating %g cost %g@."
        (i + 1)
        (Core.Rating.eval inst.Core.Instance.value pkg)
        (Core.Rating.eval inst.Core.Instance.cost pkg);
      List.iter
        (fun t -> Format.printf "   %a@." Relational.Tuple.pp t)
        (Core.Package.to_list pkg))
    packages

let topk_cmd =
  let run db query datalog compat cost value budget k size explain timeout
      fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let inst =
      make_instance (load_db db) (parse_query ~datalog query) compat cost value
        budget size
    in
    if explain then explain_instance inst;
    let b = make_budget timeout fuel in
    match stage tr "top-k" (fun () -> Core.Dispatch.topk_b ?budget:b inst ~k) with
    | Robust.Budget.Exact None ->
        Format.printf "no top-%d package selection exists@." k
    | Robust.Budget.Exact (Some packages) -> print_packages inst packages
    | Robust.Budget.Partial { best_so_far; reason; work_done } -> (
        report_partial ~what:"topk" reason work_done;
        match best_so_far with
        | None -> Format.printf "no package found before exhaustion@."
        | Some pkg ->
            Format.printf "best package found before exhaustion:@.";
            print_packages inst [ pkg ])
  in
  Cmd.v (Cmd.info "topk" ~doc:"Compute a top-k package selection (FRP).")
    Term.(
      const run $ db_arg $ query_arg $ datalog_flag $ compat_arg $ cost_arg
      $ value_arg $ budget_arg $ k_arg $ size_arg $ explain_flag $ timeout_arg
      $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- paql ---- *)

let print_paql_answer (c : Core.Paql_compile.t) (a : Core.Paql_compile.answer) =
  Format.printf "objective %g cost %g@." a.Core.Paql_compile.objective
    (Core.Rating.eval c.Core.Paql_compile.inst.Core.Instance.cost
       a.Core.Paql_compile.package);
  List.iter
    (fun t -> Format.printf "   %a@." Relational.Tuple.pp t)
    (Core.Package.to_list a.Core.Paql_compile.package)

let paql_cmd =
  let run db query approx npartitions explain timeout fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let db = load_db db in
    let text = read_query_text query in
    let c =
      match Core.Paql_compile.parse_and_compile db text with
      | Ok c -> c
      | Error e -> failwith ("paql: " ^ e)
    in
    if explain then begin
      Format.printf "--- paql ---@.%s@."
        (Qlang.Paql.to_string c.Core.Paql_compile.query);
      Format.printf "candidates: %d, constraint rows: %d@."
        (Array.length c.Core.Paql_compile.linear.Core.Paql_compile.cands)
        (List.length c.Core.Paql_compile.linear.Core.Paql_compile.constraints);
      explain_instance c.Core.Paql_compile.inst
    end;
    let b = make_budget timeout fuel in
    if approx then begin
      match
        stage tr "sketch-refine" (fun () ->
            Sketch.solve_budgeted ?budget:b ?npartitions c)
      with
      | Robust.Budget.Exact o ->
          let s = o.Sketch.stats in
          Format.printf
            "sketch: %d partitions, %d refined, %d backtracks, winner %s@."
            s.Sketch.npartitions s.Sketch.partitions_touched
            s.Sketch.backtracks s.Sketch.winner;
          (match o.Sketch.answer with
          | None -> Format.printf "no package satisfies the query@."
          | Some a -> print_paql_answer c a)
      | Robust.Budget.Partial { best_so_far; reason; work_done } -> (
          report_partial ~what:"paql --approx" reason work_done;
          match best_so_far with
          | None -> Format.printf "no package found before exhaustion@."
          | Some a ->
              Format.printf "best feasible package before exhaustion:@.";
              print_paql_answer c a)
    end
    else
      match
        stage tr "paql-exact" (fun () ->
            Core.Paql_compile.solve_budgeted ?budget:b c)
      with
      | Robust.Budget.Exact None ->
          Format.printf "no package satisfies the query@."
      | Robust.Budget.Exact (Some a) -> print_paql_answer c a
      | Robust.Budget.Partial { best_so_far; reason; work_done } -> (
          report_partial ~what:"paql" reason work_done;
          match best_so_far with
          | None -> Format.printf "no package found before exhaustion@."
          | Some a ->
              Format.printf "best feasible package before exhaustion:@.";
              print_paql_answer c a)
  in
  let paql_query_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"PAQL"
          ~doc:
            "PaQL package query (inline text or @FILE): SELECT PACKAGE(P) \
             FROM R [WHERE ...] [SUCH THAT ...] [MAXIMIZE|MINIMIZE ...].")
  in
  let approx_flag =
    Arg.(
      value & flag
      & info [ "approx" ]
          ~doc:
            "Solve approximately via SketchRefine (partition, sketch over \
             representatives, refine per partition).  Answers stay sound — \
             every package satisfies all constraints — but optimality is \
             traded for scale.  Default is the exact pseudo-Boolean \
             branch-and-bound.")
  in
  let npartitions_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "partitions" ] ~docv:"N"
          ~doc:"SketchRefine partition count (default: adaptive).")
  in
  Cmd.v
    (Cmd.info "paql"
       ~doc:
         "Run a PaQL package query: exact pseudo-Boolean solving, or \
          SketchRefine approximation with --approx.")
    Term.(
      const run $ db_arg $ paql_query_arg $ approx_flag $ npartitions_arg
      $ explain_flag $ timeout_arg $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- items ---- *)

let items_cmd =
  let run db query datalog col k timeout fuel =
    let db = load_db db in
    let select = parse_query ~datalog query in
    let it =
      Core.Items.make ~db ~select
        ~utility:
          {
            Core.Items.u_name = Printf.sprintf "col%d" col;
            u_eval =
              (fun t ->
                match Relational.Tuple.get t col with
                | Relational.Value.Int v -> float_of_int v
                | _ -> 0.);
          }
        ()
    in
    let b = make_budget timeout fuel in
    match
      Robust.Budget.run ?budget:b
        ~partial:(fun _ -> None)
        (fun () -> Core.Items.topk it ~k)
    with
    | Robust.Budget.Exact None -> Format.printf "fewer than %d items@." k
    | Robust.Budget.Exact (Some items) ->
        List.iter (fun t -> Format.printf "%a@." Relational.Tuple.pp t) items
    | Robust.Budget.Partial { reason; work_done; _ } ->
        report_partial ~what:"items" reason work_done;
        Format.printf "item selection interrupted; no items@."
  in
  let col_arg =
    Arg.(
      value & opt int 0
      & info [ "utility-col" ] ~docv:"COL"
          ~doc:"Answer column used as the item utility.")
  in
  Cmd.v (Cmd.info "items" ~doc:"Compute a top-k item selection.")
    Term.(
      const run $ db_arg $ query_arg $ datalog_flag $ col_arg $ k_arg
      $ timeout_arg $ fuel_arg)

(* ---- count ---- *)

let count_cmd =
  let run db query datalog compat cost value budget bound size explain timeout
      fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let inst =
      make_instance (load_db db) (parse_query ~datalog query) compat cost value
        budget size
    in
    if explain then explain_instance inst;
    let b = make_budget timeout fuel in
    match
      stage tr "count" (fun () -> Core.Dispatch.count_b ?budget:b inst ~bound)
    with
    | Robust.Budget.Exact n ->
        Format.printf "%d valid packages rated >= %g@." n bound
    | Robust.Budget.Partial { best_so_far; reason; work_done } ->
        report_partial ~what:"count" reason work_done;
        Format.printf "at least %d valid packages rated >= %g (verified \
                       lower bound; count interrupted)@."
          (Option.value best_so_far ~default:0)
          bound
  in
  Cmd.v (Cmd.info "count" ~doc:"Count valid packages (CPP).")
    Term.(
      const run $ db_arg $ query_arg $ datalog_flag $ compat_arg $ cost_arg
      $ value_arg $ budget_arg $ bound_arg $ size_arg $ explain_flag
      $ timeout_arg $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- maxbound ---- *)

let maxbound_cmd =
  let run db query datalog compat cost value budget k size explain timeout
      fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let inst =
      make_instance (load_db db) (parse_query ~datalog query) compat cost value
        budget size
    in
    if explain then explain_instance inst;
    let b = make_budget timeout fuel in
    match
      stage tr "max-bound" (fun () -> Core.Dispatch.max_bound_b ?budget:b inst ~k)
    with
    | Robust.Budget.Exact None -> Format.printf "fewer than %d valid packages@." k
    | Robust.Budget.Exact (Some b) ->
        Format.printf "maximum bound for top-%d: %g@." k b
    | Robust.Budget.Partial { reason; work_done; _ } ->
        report_partial ~what:"maxbound" reason work_done;
        Format.printf "maximum bound for top-%d: unknown (a partial search \
                       bounds it in neither direction)@."
          k
  in
  Cmd.v (Cmd.info "maxbound" ~doc:"Compute the maximum rating bound (MBP).")
    Term.(
      const run $ db_arg $ query_arg $ datalog_flag $ compat_arg $ cost_arg
      $ value_arg $ budget_arg $ k_arg $ size_arg $ explain_flag $ timeout_arg
      $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- solve (instance files) ---- *)

let solve_cmd =
  let run path k bound explain timeout fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let inst = stage tr "load" (fun () -> Core.Instance_file.load path) in
    if explain then explain_instance inst;
    (* One budget shared across all stages: fuel and the deadline bound the
       whole command, not each stage separately. *)
    let b = make_budget timeout fuel in
    Format.printf "language: %s"
      (Qlang.Query.lang_to_string (Core.Instance.language inst));
    (match Core.Instance.compat_language inst with
    | Some l -> Format.printf " (Qc: %s)@." (Qlang.Query.lang_to_string l)
    | None -> Format.printf " (no Qc)@.");
    Format.printf "|Q(D)| = %d@."
      (stage tr "candidates" (fun () ->
           Relational.Relation.cardinal (Core.Instance.candidates inst)));
    (match
       stage tr "top-k" (fun () -> Core.Dispatch.topk_b ?budget:b inst ~k)
     with
    | Robust.Budget.Exact None ->
        Format.printf "no top-%d package selection exists@." k
    | Robust.Budget.Exact (Some packages) -> print_packages inst packages
    | Robust.Budget.Partial { best_so_far; reason; work_done } -> (
        report_partial ~what:"solve top-k" reason work_done;
        match best_so_far with
        | None -> Format.printf "top-%d interrupted; no package found@." k
        | Some pkg ->
            Format.printf "best package found before exhaustion:@.";
            print_packages inst [ pkg ]));
    (match
       stage tr "max-bound" (fun () ->
           Core.Dispatch.max_bound_b ?budget:b inst ~k)
     with
    | Robust.Budget.Exact (Some b) ->
        Format.printf "maximum bound for top-%d: %g@." k b
    | Robust.Budget.Exact None -> Format.printf "fewer than %d valid packages@." k
    | Robust.Budget.Partial { reason; work_done; _ } ->
        report_partial ~what:"solve max-bound" reason work_done;
        Format.printf "maximum bound for top-%d: unknown@." k);
    match bound with
    | None -> ()
    | Some bnd -> (
        match
          stage tr "count" (fun () ->
              Core.Dispatch.count_b ?budget:b inst ~bound:bnd)
        with
        | Robust.Budget.Exact n ->
            Format.printf "valid packages rated >= %g: %d@." bnd n
        | Robust.Budget.Partial { best_so_far; reason; work_done } ->
            report_partial ~what:"solve count" reason work_done;
            Format.printf "valid packages rated >= %g: at least %d (count \
                           interrupted)@."
              bnd
              (Option.value best_so_far ~default:0))
  in
  let file_arg =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "instance"; "i" ] ~docv:"FILE"
          ~doc:"Instance file (see Core.Instance_file for the format).")
  in
  let bound_opt =
    Arg.(
      value
      & opt (some float) None
      & info [ "count-bound" ] ~docv:"B" ~doc:"Also count packages rated >= B.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a complete instance file: top-k, MBP, CPP.")
    Term.(
      const run $ file_arg $ k_arg $ bound_opt $ explain_flag $ timeout_arg
      $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- relax ---- *)

(* Site specs: "const:<value>:<dfun>" or "var:<name>:<dfun>". *)
let parse_site spec =
  match String.split_on_char ':' spec with
  | [ "const"; v; dfun ] ->
      { Core.Relax.kind = Core.Relax.Const_site (Relational.Value.of_string v); dfun }
  | [ "var"; x; dfun ] -> { Core.Relax.kind = Core.Relax.Var_site x; dfun }
  | _ -> failwith ("bad site spec (const:<value>:<dfun> | var:<name>:<dfun>): " ^ spec)

let describe_site (site : Core.Relax.site) =
  match site.Core.Relax.kind with
  | Core.Relax.Const_site c ->
      Printf.sprintf "constant %s (%s)" (Relational.Value.to_string c)
        site.Core.Relax.dfun
  | Core.Relax.Var_site x -> Printf.sprintf "variable %s (%s)" x site.Core.Relax.dfun

let relax_cmd =
  let run path sites k bound max_gap timeout fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let inst = Core.Instance_file.load path in
    let sites = List.map parse_site sites in
    if sites = [] then failwith "relax: need at least one --site";
    let b = make_budget timeout fuel in
    match
      stage tr "relax" (fun () ->
          Core.Relax.qrpp_budgeted ?budget:b inst ~sites ~k ~bound ~max_gap)
    with
    | Robust.Budget.Exact None ->
        Format.printf "no relaxation of gap <= %g admits %d packages rated >= %g@."
          max_gap k bound
    | Robust.Budget.Exact (Some (r, q')) ->
        Format.printf "relaxation found, gap %g:@." (Core.Relax.gap r);
        List.iter
          (fun (site, lvl) ->
            match lvl with
            | Core.Relax.Keep -> ()
            | Core.Relax.Widen d ->
                Format.printf "  widen %s to distance <= %g@." (describe_site site) d)
          r;
        Format.printf "relaxed query:@.  %a@." Qlang.Pretty.pp_query q'
    | Robust.Budget.Partial { reason; work_done; _ } ->
        report_partial ~what:"relax" reason work_done;
        Format.printf "relaxation search interrupted; no verdict@."
  in
  let sites_arg =
    Arg.(
      value & opt_all string []
      & info [ "site" ] ~docv:"SITE"
          ~doc:"Relaxable site: const:<value>:<dfun> or var:<name>:<dfun> \
                (repeatable; dfuns come from the instance's [distances]).")
  in
  let bound_req =
    Arg.(value & opt float 0. & info [ "bound"; "B" ] ~docv:"B" ~doc:"Rating bound.")
  in
  let gap_arg =
    Arg.(value & opt float 10. & info [ "max-gap"; "g" ] ~docv:"G" ~doc:"Gap budget g.")
  in
  Cmd.v
    (Cmd.info "relax" ~doc:"Query relaxation recommendation (QRPP, Section 7).")
    Term.(const run $ (Arg.(required & opt (some non_dir_file) None
                            & info [ "instance"; "i" ] ~docv:"FILE" ~doc:"Instance file."))
          $ sites_arg $ k_arg $ bound_req $ gap_arg $ timeout_arg $ fuel_arg
          $ trace_flag $ trace_json_flag)

(* ---- adjust ---- *)

let adjust_cmd =
  let run path extra k bound max_changes timeout fuel trace trace_json =
    traced trace trace_json @@ fun tr ->
    let inst = Core.Instance_file.load path in
    let extra = load_db extra in
    let b = make_budget timeout fuel in
    match
      stage tr "adjust" (fun () ->
          Core.Adjust.arpp_budgeted ?budget:b inst ~extra ~k ~bound ~max_changes)
    with
    | Robust.Budget.Exact None ->
        Format.printf "no adjustment of size <= %d admits %d packages rated >= %g@."
          max_changes k bound
    | Robust.Budget.Exact (Some delta) ->
        Format.printf "adjustment found (%d changes): %a@." (Core.Adjust.size delta)
          Core.Adjust.pp_delta delta
    | Robust.Budget.Partial { reason; work_done; _ } ->
        report_partial ~what:"adjust" reason work_done;
        Format.printf "adjustment search interrupted; no verdict@."
  in
  let extra_arg =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "extra" ] ~docv:"FILE"
          ~doc:"The additional item collection D' (database file).")
  in
  let bound_req =
    Arg.(value & opt float 0. & info [ "bound"; "B" ] ~docv:"B" ~doc:"Rating bound.")
  in
  let changes_arg =
    Arg.(
      value & opt int 2
      & info [ "max-changes" ] ~docv:"K'" ~doc:"Maximum adjustment size k'.")
  in
  Cmd.v
    (Cmd.info "adjust" ~doc:"Adjustment recommendation (ARPP, Section 8).")
    Term.(const run
          $ (Arg.(required & opt (some non_dir_file) None
                  & info [ "instance"; "i" ] ~docv:"FILE" ~doc:"Instance file."))
          $ extra_arg $ k_arg $ bound_req $ changes_arg $ timeout_arg
          $ fuel_arg $ trace_flag $ trace_json_flag)

(* ---- analyze ---- *)

let print_diagnostics ds =
  if ds = [] then Format.printf "no issues found@."
  else Format.printf "@[<v>%a@]@." Analysis.Diagnostic.pp_list ds

(* The named workload queries, each paired with the database it runs
   against.  Compatibility constraints see the database extended with an
   empty package relation (that is the environment Validity gives them). *)
let workload_lints () =
  let with_rq (inst : Core.Instance.t) =
    Relational.Database.add
      (Relational.Relation.empty (Core.Instance.answer_schema inst))
      inst.Core.Instance.db
  in
  let travel_inst =
    Workload.Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:3 ()
  in
  let team_inst = Workload.Teams.team_instance () in
  let plan_inst = Workload.Courses.plan_instance () in
  [
    ( "travel: direct flights",
      Workload.Travel.db,
      Qlang.Query.Fo (Workload.Travel.direct_flights "edi" "nyc" 3) );
    ( "travel: flights up to one stop",
      Workload.Travel.db,
      Qlang.Query.Fo (Workload.Travel.flights_upto_one_stop "edi" "nyc" 3) );
    ( "travel: package query",
      Workload.Travel.db,
      Qlang.Query.Fo (Workload.Travel.package_query "edi" "nyc" 3) );
    ( "travel: at most two museums (Qc)",
      with_rq travel_inst,
      Workload.Travel.at_most_two_museums );
    ("travel: same flight (Qc)", with_rq travel_inst, Workload.Travel.same_flight);
    ( "teams: experts with skill",
      Workload.Teams.db,
      Qlang.Query.Fo (Workload.Teams.experts_with_skill "backend") );
    ( "teams: all experts",
      Workload.Teams.db,
      Qlang.Query.Fo Workload.Teams.all_experts );
    ("teams: no conflicts (Qc)", with_rq team_inst, Workload.Teams.no_conflicts);
    ( "courses: all courses",
      Workload.Courses.db,
      Qlang.Query.Fo Workload.Courses.all_courses );
    ( "courses: prereq closed (Qc)",
      with_rq plan_inst,
      Workload.Courses.prereq_closed );
  ]

let analyze_cmd =
  let run db query datalog compat problem size workloads plan_mode raw =
    let errors = ref false in
    let analyze_one ~db q =
      Format.printf "query: %a@.language: %s@." Qlang.Query.pp q
        (Qlang.Query.lang_to_string (Qlang.Query.language q));
      let ds = Analysis.Analyze.query ~db q in
      print_diagnostics ds;
      if Analysis.Diagnostic.has_errors ds then errors := true;
      ds
    in
    (* The P-series passes over an already-compiled plan; [source] is the
       query it claims to compile (absent for raw plans). *)
    let check_plan ~what ?source ~db plan =
      Format.printf "--- plan check: %s ---@." what;
      let ds = Analysis.Plan_check.check ?query:source ~db plan in
      print_diagnostics ds;
      if Analysis.Diagnostic.has_errors ds then errors := true;
      match source with
      | None -> ()
      | Some q ->
          Format.printf "%s@."
            (Analysis.Advisor.certificate_to_string
               (Analysis.Plan_check.certify q plan))
    in
    (* Verify the plan the query compiles to, with its rewrite-soundness
       certificate. *)
    let plan_verify ~db q =
      let what =
        match q with
        | Qlang.Query.Fo _ -> "compiled"
        | Qlang.Query.Dl _ -> "fixpoint"
        | Qlang.Query.Identity _ | Qlang.Query.Empty_query -> "trivial"
      in
      let plan = Qlang.Query.plan db q in
      check_plan ~what ~source:q ~db plan;
      [ plan ]
    in
    if raw then begin
      (* Hidden debug mode: the query text is a raw plan in the
         [Plan_parse] notation, checked without a source query. *)
      let db =
        match db with
        | Some path -> load_db path
        | None -> failwith "analyze: --raw requires --db"
      in
      let text =
        match query with
        | Some q -> read_query_text q
        | None -> failwith "analyze: --raw requires --query"
      in
      let plan = Analysis.Plan_parse.parse text in
      check_plan ~what:"raw plan" ~db plan
    end
    else if workloads then
      List.iter
        (fun (name, db, q) ->
          Format.printf "--- %s ---@." name;
          ignore (analyze_one ~db q);
          Format.printf "@.")
        (workload_lints ())
    else begin
      let db =
        match db with
        | Some path -> load_db path
        | None -> failwith "analyze: --db is required (or use --workloads)"
      in
      let query =
        match query with
        | Some q -> q
        | None -> failwith "analyze: --query is required (or use --workloads)"
      in
      let q = parse_query ~datalog query in
      ignore (analyze_one ~db q);
      let verified_plans = ref [] in
      if plan_mode then verified_plans := plan_verify ~db q;
      (match compat with
      | None -> ()
      | Some text ->
          let qc = parse_query ~datalog:false text in
          Format.printf "@.compatibility constraint:@.";
          (* Qc runs over the database extended with the package relation
             RQ; lint it in that environment. *)
          let rq_schema =
            let sch = Qlang.Query.answer_schema db q in
            Relational.Schema.make "RQ"
              (Array.to_list sch.Relational.Schema.attrs)
          in
          let db' =
            Relational.Database.add (Relational.Relation.empty rq_schema) db
          in
          ignore (analyze_one ~db:db' qc);
          if plan_mode then
            verified_plans := !verified_plans @ plan_verify ~db:db' qc);
      if plan_mode then begin
        (* Coverage over everything verified in this invocation: for a
           complete corpus (an FO and a Datalog query) every
           plan-reachable PKG_FAULT site must appear. *)
        let ds = Analysis.Plan_check.fault_coverage !verified_plans in
        let relevant =
          (* a single FO query legitimately never reaches plan.round; only
             report registry drift and sites no corpus could reach *)
          List.filter
            (fun (d : Analysis.Diagnostic.t) -> d.Analysis.Diagnostic.code <> "P022")
            ds
        in
        if relevant <> [] then begin
          Format.printf "--- fault coverage ---@.";
          print_diagnostics relevant;
          if Analysis.Diagnostic.has_errors relevant then errors := true
        end
      end;
      match problem with
      | None -> ()
      | Some p -> (
          match Analysis.Advisor.problem_of_string p with
          | None -> failwith ("analyze: unknown problem " ^ p)
          | Some problem ->
              let flags =
                {
                  Analysis.Advisor.compat = compat <> None;
                  const_bound = size <> None;
                  items = size = Some 1;
                  ptime_compat = false;
                }
              in
              let report =
                Analysis.Advisor.advise problem
                  ~lang:(Qlang.Query.language q) ~flags
              in
              Format.printf "@.%a@." Analysis.Advisor.pp_report report)
    end;
    if !errors then exit 1
  in
  let db_opt =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "db" ] ~docv:"FILE" ~doc:"Database file (textual format).")
  in
  let query_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"QUERY"
          ~doc:"Query to analyze: inline text, or @FILE to read a file.")
  in
  let problem_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "problem" ] ~docv:"PROBLEM"
          ~doc:
            "Also print the complexity advisor's Table-8.1/8.2 cell for \
             PROBLEM (rpp | frp | mbp | cpp | qrpp | arpp).")
  in
  let workloads_flag =
    Arg.(
      value & flag
      & info [ "workloads" ]
          ~doc:"Lint the built-in workload queries (travel, teams, courses).")
  in
  let plan_flag =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:
            "Also verify the compiled physical plan(s): schema/arity \
             typing, rewrite-soundness certificate, budget/fault lint and \
             the effect verdict (P-series diagnostics).")
  in
  let raw_flag =
    (* debug-only: feed a hand-written plan straight to the verifier *)
    Arg.(
      value & flag
      & info [ "raw" ] ~docs:Manpage.s_none
          ~doc:
            "Treat the query text as a raw physical plan (the fixture \
             notation of [Analysis.Plan_parse]) and verify it directly.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze a query or Datalog program: safety, schema \
          conformance, stratification, complexity advisor.  With --plan, \
          also statically verify the compiled physical plans.  Exits \
          nonzero on error diagnostics.")
    Term.(
      const run $ db_opt $ query_opt $ datalog_flag $ compat_arg $ problem_arg
      $ size_arg $ workloads_flag $ plan_flag $ raw_flag)

(* ---- serve / replay ---- *)

let parse_load spec =
  match String.index_opt spec '=' with
  | Some i when i > 0 ->
      let name = String.sub spec 0 i
      and path = String.sub spec (i + 1) (String.length spec - i - 1) in
      (name, Core.Instance_file.load path)
  | _ -> failwith ("bad --load (expected NAME=FILE): " ^ spec)

let serve_cmd =
  let run socket port loads domains queue_cap deadline max_deadline fuel
      trace_json =
    if socket = None && port = None then
      failwith "serve: need --socket PATH or --port N";
    let reg = List.map parse_load loads in
    if reg = [] then failwith "serve: need at least one --load NAME=FILE";
    let trace =
      if trace_json then begin
        (* per-request NDJSON records need the Observe cells live *)
        Observe.set_enabled true;
        Some (fun line -> print_endline line; flush stdout)
      end
      else None
    in
    let config =
      {
        Serve.Server.domains =
          Option.value domains ~default:Serve.Server.default_config.Serve.Server.domains;
        queue_cap;
        deadline;
        max_deadline;
        fuel;
        trace;
      }
    in
    let srv =
      try Serve.Server.create ~config reg
      with Invalid_argument msg ->
        Printf.eprintf "recommend: serve: %s\n%!" msg;
        exit 2
    in
    (* Once loaded, a daemon's live heap barely moves: the package verbs
       allocate little once their instance stores its valid-package
       index, and a safe-range [eval] anti-joins without building the
       active domain.  The peak heap is then set by how long the major GC
       lets the steady garbage of these light requests pile up, which the
       space overhead bounds.  On the serve-teams benchmark (2-vCPU VM)
       the daemon peaked at 49.5 MiB with 80 and at 44.2-44.7 MiB with 60,
       with throughput within run-to-run noise. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
    let lfd, where =
      match (socket, port) with
      | Some path, _ -> (Serve.Server.listen_unix path, "unix:" ^ path)
      | None, Some p ->
          let fd = Serve.Server.listen_tcp p in
          (fd, Printf.sprintf "tcp:127.0.0.1:%d" (Serve.Server.bound_port fd))
      | None, None -> assert false
    in
    (* the readiness line scripts wait for before replaying *)
    Printf.printf "listening on %s (%d domains, queue %d)\n%!" where
      config.Serve.Server.domains queue_cap;
    Serve.Server.run srv lfd;
    List.iter
      (fun (k, v) -> Printf.printf "serve.%s %d\n" k v)
      (Serve.Server.stats srv);
    match socket with
    | Some p when Sys.file_exists p -> ( try Sys.remove p with _ -> ())
    | _ -> ()
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Serve on a unix-domain socket.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Serve on 127.0.0.1:PORT (0 picks a free port).")
  in
  let load_arg =
    Arg.(
      value & opt_all string []
      & info [ "load" ] ~docv:"NAME=FILE"
          ~doc:"Load an instance file under wire name NAME (repeatable).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains, each running one request at a time (default: \
             the recommended domain count; at most 127).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Bounded request queue; beyond it requests are shed.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request budget (admission to response).")
  in
  let max_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-deadline" ] ~docv:"SECONDS"
          ~doc:"Cap on client-supplied timeout= values.")
  in
  let serve_fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Per-request fuel bound.")
  in
  let serve_trace_json =
    Arg.(
      value & flag
      & info [ "trace-json" ]
          ~doc:
            "Emit one NDJSON record per served request on stdout (stage \
             timings and Observe counter deltas).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the serving daemon: load instances once, answer mixed \
          eval/topk/count/maxbound/rpp/analyze requests over a \
          newline-delimited protocol with admission control, load shedding \
          and graceful degradation.")
    Term.(
      const run $ socket_arg $ port_arg $ load_arg $ domains_arg $ queue_arg
      $ deadline_arg $ max_deadline_arg $ serve_fuel_arg $ serve_trace_json)

let replay_cmd =
  let run socket port trace_file shutdown quiet =
    let client =
      match (socket, port) with
      | Some path, _ -> Serve.Client.connect_unix path
      | None, Some p -> Serve.Client.connect_tcp p
      | None, None -> failwith "replay: need --socket PATH or --port N"
    in
    let lines =
      In_channel.with_open_text trace_file In_channel.input_lines
      |> List.filter (fun l -> not (Serve.Proto.is_comment l))
    in
    let sent = List.length lines in
    List.iter (Serve.Client.send_line client) lines;
    let counts = Hashtbl.create 8 in
    let got = ref 0 in
    (try
       while !got < sent do
         match Serve.Client.recv_line client with
         | None -> raise Exit
         | Some resp ->
             incr got;
             let st =
               Option.value (Serve.Proto.response_status resp) ~default:"?"
             in
             Hashtbl.replace counts st
               (1 + Option.value (Hashtbl.find_opt counts st) ~default:0);
             if not quiet then print_endline resp
       done
     with Exit -> ());
    if shutdown then ignore (Serve.Client.request client "shutdown");
    Serve.Client.close client;
    Printf.printf "replayed %d requests, received %d responses\n" sent !got;
    List.iter
      (fun (st, n) -> Printf.printf "  %s %d\n" st n)
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []));
    if !got < sent then exit 1
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to a unix-domain socket.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Connect to 127.0.0.1:PORT.")
  in
  let trace_arg =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Request-trace file: one protocol line per request.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request after the trace.")
  in
  let quiet_flag =
    Arg.(
      value & flag & info [ "quiet" ] ~doc:"Do not echo individual responses.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a request trace against a running daemon and summarize the \
          responses per status.")
    Term.(
      const run $ socket_arg $ port_arg $ trace_arg $ shutdown_flag
      $ quiet_flag)

(* ---- demo ---- *)

let demo_cmd =
  let run () =
    let inst =
      Workload.Travel.package_instance ~orig:"edi" ~dest:"nyc" ~day:3 ()
    in
    match Core.Frp.enumerate inst ~k:2 with
    | None -> print_endline "no packages"
    | Some packages ->
        List.iteri
          (fun i pkg ->
            Format.printf "plan #%d:@." (i + 1);
            List.iter
              (fun t -> Format.printf "  %a@." Relational.Tuple.pp t)
              (Core.Package.to_list pkg))
          packages
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the built-in Example 1.1 travel demo.")
    Term.(const run $ const ())

let main =
  let doc = "package recommendation: top-k packages, items, counting, bounds" in
  Cmd.group (Cmd.info "recommend" ~version:"1.0.0" ~doc)
    [
      eval_cmd; topk_cmd; paql_cmd; items_cmd; count_cmd; maxbound_cmd;
      solve_cmd; relax_cmd; adjust_cmd; analyze_cmd; serve_cmd; replay_cmd;
      demo_cmd;
    ]

let () =
  let code = Cmd.eval main in
  (* 124 (the timeout(1) convention) distinguishes "budget exhausted" from
     both success ("no package exists" is a definite answer, exit 0) and
     real errors; 3 marks an injected fault. *)
  exit
    (if !fault_exit then 3
     else if code = 0 && !partial_exit then 124
     else code)
