(* paql-shapes: one process, whole passes over a seeded PaQL corpus on a
   generated catalog R(id, cost, val, w).  Each op is parse -> compile ->
   SketchRefine.  Every package is checked against the surface semantics
   and against a sound bound the benchmark computes, which also gives
   the quality ratio. *)

module I = Perfbench_inputs.Inputs
module M = Measure
module Relation = Relational.Relation
module Database = Relational.Database
module Paql_compile = Core.Paql_compile
module Pb = Solvers.Pb

(* A sound bound on the optimum from the Lagrangian dual of the LP
   relaxation.  In maximize form (the compiled objective is already
   negated for MINIMIZE) with every row written as A·x ≤ b, any λ ≥ 0
   gives λ·b + Σ_j max(0, c_j − (λᵀA)_j) ≥ max c·x over 0 ≤ x ≤ 1, hence
   over every package.  Coordinate descent, each step an exact
   one-dimensional minimization, only tightens it: the bound is sound
   however far the descent gets. *)
let lagrangian_bound objective constraints =
  let rows =
    Array.of_list
      (List.concat_map
         (fun { Pb.coeffs; cmp; rhs } ->
           let neg = (Array.map (fun a -> -.a) coeffs, -.rhs) in
           match cmp with
           | Pb.Le -> [ (coeffs, rhs) ]
           | Pb.Ge -> [ neg ]
           | Pb.Eq -> [ (coeffs, rhs); neg ])
         constraints)
  in
  let lambda = Array.make (Array.length rows) 0. in
  let reduced = Array.copy objective in
  let value () =
    let v = ref 0. in
    Array.iteri (fun i (_, b) -> v := !v +. (lambda.(i) *. b)) rows;
    Array.iter (fun r -> if r > 0. then v := !v +. r) reduced;
    !v
  in
  (* minimize t·b + Σ_j max(0, d_j − t·a_j) over t ≥ 0: the slope starts
     at b − Σ of the active a_j and each breakpoint adds |a_j| *)
  let step i =
    let a, b = rows.(i) in
    let d = Array.mapi (fun j r -> r +. (lambda.(i) *. a.(j))) reduced in
    let slope = ref b and breaks = ref [] in
    Array.iteri
      (fun j dj ->
        if dj > 0. || (dj = 0. && a.(j) < 0.) then slope := !slope -. a.(j);
        if a.(j) <> 0. && dj /. a.(j) > 0. then breaks := (dj /. a.(j), Float.abs a.(j)) :: !breaks)
      d;
    let rec walk t = function
      | _ when !slope >= 0. -> t
      | [] -> t
      | (tj, w) :: rest ->
          slope := !slope +. w;
          walk tj rest
    in
    let t = walk 0. (List.sort compare !breaks) in
    lambda.(i) <- t;
    Array.iteri (fun j dj -> reduced.(j) <- dj -. (t *. a.(j))) d
  in
  let rec sweep k best =
    if k = 0 then best
    else begin
      Array.iteri (fun i _ -> step i) rows;
      let v = value () in
      if v >= best -. (1e-9 *. Float.abs best) then Float.min v best else sweep (k - 1) v
    end
  in
  sweep 30 (value ())

(* The bound on the surface objective: an upper bound for MAXIMIZE, a
   lower bound for MINIMIZE. *)
let sound_bound (c : Paql_compile.t) =
  let lin = c.Paql_compile.linear in
  let ub = lagrangian_bound lin.Paql_compile.objective lin.Paql_compile.constraints in
  if lin.Paql_compile.minimize then -.ub else ub

let tolerance = 1e-6

(* The objective recomputed from the package's own tuples. *)
let recomputed (c : Paql_compile.t) pkg =
  let col =
    match c.Paql_compile.query.Qlang.Paql.objective with
    | Qlang.Paql.Maximize (Qlang.Paql.Sum col) | Qlang.Paql.Minimize (Qlang.Paql.Sum col) ->
        Some col
    | _ -> None
  in
  match col with
  | None -> None
  | Some col ->
      let schema = Paql_compile.schema c in
      let rec index i = if schema.Relational.Schema.attrs.(i) = col then i else index (i + 1) in
      let j = index 0 in
      Some
        (List.fold_left
           (fun acc t -> acc +. float_of_int (Relational.Value.int_exn (Relational.Tuple.get t j)))
           0. (Core.Package.to_list pkg))

(* Quality of one answer: objective over the bound, inverted for
   MINIMIZE; no package for a feasible query scores 0. *)
let quality (c : Paql_compile.t) bound = function
  | None -> 0.
  | Some (a : Paql_compile.answer) ->
      let obj = a.Paql_compile.objective in
      if c.Paql_compile.linear.Paql_compile.minimize then
        if obj <= 0. then 1. else bound /. obj
      else if bound <= 0. then 1.
      else obj /. bound

let check (c : Paql_compile.t) bound = function
  | None -> true
  | Some (a : Paql_compile.answer) ->
      let obj = a.Paql_compile.objective in
      Paql_compile.satisfies c a.Paql_compile.package
      && (match recomputed c a.Paql_compile.package with
         | Some v -> Float.abs (v -. obj) <= tolerance
         | None -> true)
      &&
      if c.Paql_compile.linear.Paql_compile.minimize then obj >= bound -. tolerance
      else obj <= bound +. tolerance

type op = {
  query : int;
  t0 : float;
  ms : float;  (** wall time *)
  ok : bool;
  quality : float;
  stats : Sketch.stats option;  (** [None] when the op raised *)
}

let one_op dbs bounds (_, cat, text) query =
  let t0 = M.now () in
  match
    let parsed = M.span "qlang.parse" (fun () -> Qlang.Paql.parse text) in
    let c = M.span "core.paql_compile" (fun () -> Paql_compile.compile_exn dbs.(cat) parsed) in
    let o = M.span "sketch.solve" (fun () -> Sketch.solve c) in
    (c, o)
  with
  | c, o ->
      let ms = (M.now () -. t0) *. 1000. in
      {
        query;
        t0;
        ms;
        ok = check c bounds.(query) o.Sketch.answer;
        quality = quality c bounds.(query) o.Sketch.answer;
        stats = Some o.Sketch.stats;
      }
  | exception _ ->
      { query; t0; ms = (M.now () -. t0) *. 1000.; ok = false; quality = 0.; stats = None }

(* Whole passes over the corpus, as many as come nearest to [seconds]
   and at least one: every run weighs each query the same, whatever the
   machine's speed, and a run ends within half a pass of [seconds] or
   after its first pass.  The reference kernel is timed between ops. *)
let passes dbs bounds (p : I.paql) ~seconds =
  let calib0 = !M.calib_s in
  let start = M.now () in
  let deadline = start +. seconds in
  let ops = ref [] and pass_s = ref [] in
  while
    match !pass_s with
    | [] -> true
    | last :: _ -> M.now () +. (last /. 2.) < deadline
  do
    let t0 = M.now () in
    Array.iteri
      (fun q entry ->
        M.current_op := List.length !pass_s * Array.length p.I.corpus + q;
        M.tick ();
        ops := one_op dbs bounds entry q :: !ops)
      p.I.corpus;
    pass_s := (M.now () -. t0) :: !pass_s
  done;
  (Array.of_list (List.rev !ops), M.phase_from start calib0, List.rev !pass_s)

let setup_repeats = 21

let run ~seed ~seconds ~trace =
  let p = I.paql ~seed in
  let tuples = Array.map (fun rows -> Array.to_list (I.catalog_tuples rows)) p.I.catalogs in
  let notes =
    ref
      [
        Printf.sprintf "inputs digest %s (%d catalogs of %d tuples, %d queries)" (I.paql_digest p)
          I.catalogs I.catalog_rows (Array.length p.I.corpus);
      ]
  in
  let note s = notes := s :: !notes in
  let setups = Array.make setup_repeats 0. and starts = Array.make setup_repeats 0. in
  let dbs = ref [||] in
  for r = 0 to setup_repeats - 1 do
    dbs := [||];
    (* a minor collection only: on OCaml 5.1 every forced major cycle
       here raised the timed phase's peak RSS by about 16 MiB *)
    Gc.minor ();
    M.calibrate ();
    let t0 = M.now () in
    starts.(r) <- t0;
    dbs :=
      Array.map
        (fun ts ->
          let rel = Relation.of_list I.catalog_schema ts in
          ignore (Relation.columns rel);
          Database.of_relations [ rel ])
        tuples;
    setups.(r) <- M.now () -. t0
  done;
  let dbs = !dbs in
  let bounds =
    Array.map
      (fun (_, cat, text) -> sound_bound (Paql_compile.compile_exn dbs.(cat) (Qlang.Paql.parse text)))
      p.I.corpus
  in
  let summarize ops =
    Array.fold_left (fun n o -> if o.ok then n else n + 1) 0 ops
  in
  (* per-query quality; whole passes answer every query at least once *)
  let quality_of ops =
    let seen = Array.make (Array.length p.I.corpus) 0. in
    Array.iter (fun o -> seen.(o.query) <- o.quality) ops;
    seen
  in
  if not trace then begin
    let ops, phase, pass_s = passes dbs bounds p ~seconds in
    let c = M.calibration () in
    let raw = Array.map (fun o -> o.ms) ops in
    let lat = M.scaled c ~starts:(Array.map (fun o -> o.t0) ops) raw in
    let wall = M.scaled_wall c phase in
    let failed = summarize ops in
    let qualities = quality_of ops in
    note (M.setup_note c ~starts setups);
    note
      (Printf.sprintf "latency samples %d; pass seconds %s" (Array.length lat)
         (String.concat " " (List.map (Printf.sprintf "%.3f") pass_s)));
    note (M.raw_note c phase ~ops:(Array.length ops) raw);
    (* query time and quality per constraint shape *)
    List.iter
      (fun shape ->
        let mine q = fst (I.split_shape (let s, _, _ = p.I.corpus.(q) in s)) = shape in
        let ms =
          Array.of_list
            (List.filter_map
               (fun (o, ms) -> if mine o.query then Some ms else None)
               (List.combine (Array.to_list ops) (Array.to_list lat)))
        in
        let qs = List.filter mine (List.init (Array.length qualities) Fun.id) in
        note
          (Printf.sprintf "shape %-9s queries %3d  median %8.2f ms  max %8.2f ms  quality %.4f  no package %d"
             shape (List.length qs) (M.median ms) (Array.fold_left Float.max 0. ms)
             (M.mean (Array.of_list (List.map (fun q -> qualities.(q)) qs)))
             (List.length (List.filter (fun q -> qualities.(q) = 0.) qs))))
      (Array.to_list I.shapes);
    {
      Report.attempted = Array.length ops;
      failed;
      e2e =
        [
          ("ops_per_s", float_of_int (Array.length ops) /. wall);
          ("op_p50_ms", M.percentile ~what:"op latency" lat 50.);
          ("op_p90_ms", M.percentile ~what:"op latency" lat 90.);
          ("setup_s", M.median (M.scaled c ~starts setups));
          ("peak_rss_mb", M.self_peak_rss_mb ());
          ("quality_ratio", M.mean qualities);
        ];
      layers = [];
      samples = [ ("op latency", Array.length lat) ];
      notes = List.rev !notes;
    }
  end
  else begin
    let half = seconds /. 2. in
    let ops_a, phase_a, _ = passes dbs bounds p ~seconds:half in
    Observe.reset ();
    Observe.set_enabled true;
    M.tracing := true;
    let ops, phase, _ = passes dbs bounds p ~seconds:half in
    M.tracing := false;
    Observe.set_enabled false;
    let count = M.count (Observe.snapshot ()) in
    let self = M.self_ms () in
    let n = float_of_int (max 1 (Array.length ops)) in
    let stats = Array.to_list ops |> List.filter_map (fun o -> o.stats) in
    let stat f = List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. stats /. n in
    let share winners =
      float_of_int (List.length (List.filter (fun s -> List.mem s.Sketch.winner winners) stats)) /. n
    in
    let timings =
      [
        ("qlang.parse_ms", self "qlang.parse");
        ("core.paql_compile_ms", self "core.paql_compile");
        ("sketch.solve_ms", self "sketch.solve");
      ]
    in
    let c = M.calibration () in
    let qps ops phase = float_of_int (Array.length ops) /. M.scaled_wall c phase in
    let failed = summarize ops_a + summarize ops in
    note (Printf.sprintf "untraced half %d ops, traced half %d ops, %d failed" (Array.length ops_a) (Array.length ops) failed);
    {
      Report.attempted = Array.length ops_a + Array.length ops;
      failed;
      e2e = [];
      layers =
        Report.p50s timings
        @ [
            ("solvers.pb_nodes", count "pb.nodes" /. n);
            ("solvers.pb_s", count "pb.solve" /. n);
            ("sketch.sketch_s", count "sketch.sketch" /. n);
            ("sketch.refine_s", count "sketch.refine" /. n);
            ("sketch.backtracks", stat (fun s -> s.Sketch.backtracks));
            ("sketch.partitions_touched", stat (fun s -> s.Sketch.partitions_touched));
            ("sketch.win_share.sketch_refine", share [ "sketch-refine" ]);
            ("sketch.win_share.greedy", share [ "greedy" ]);
            ("sketch.win_share.singleton", share [ "singleton" ]);
            ("sketch.win_share.none", share [ "none"; "empty" ]);
            ("trace.overhead_ratio", qps ops_a phase_a /. qps ops phase);
          ];
      samples = List.map (fun (name, a) -> (name, Array.length a)) timings;
      notes = List.rev !notes;
    }
  end
