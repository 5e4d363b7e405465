(* Benchmark harness: regenerates every table and figure of the paper.

   The paper is a complexity-theory paper; its "evaluation" artifacts are
   Figure 4.1 (the Boolean gadget relations), Table 8.1 (combined
   complexity of RPP/FRP/MBP/CPP/QRPP/ARPP across CQ..DATALOG, with and
   without compatibility constraints) and Table 8.2 (data complexity,
   polynomially-bounded vs constant-bounded packages).  This harness

   - prints Figure 4.1 verbatim from the implementation,
   - regenerates each Table 8.1 row as a measured scaling series: the
     implemented solver runs on the corresponding lower-bound reduction
     family at growing *query/formula* size, next to the paper's class,
   - regenerates Table 8.2 rows as data-scaling series: fixed query,
     growing database, demonstrating the constant-bound collapse to PTIME
     (Corollary 6.1) and the SP-query contrast (Corollary 6.2),
   - runs design-choice ablations (FRP solvers, exact vs sampled
     counting).

   Absolute numbers are machine-dependent; the claims reproduced are the
   *shapes*: which rows blow up with query size, which stay flat, which
   collapse when Qc is dropped or package sizes are fixed.

   Run with: dune exec bench/main.exe            (full, a few minutes)
             dune exec bench/main.exe -- --quick (reduced sizes)
             dune exec bench/main.exe -- --timeout=1  (per-point deadline, s)

   With --timeout=S every scaling point runs under a [Robust.Budget]
   deadline: points that exhaust it are printed as "timed out", excluded
   from the growth-exponent fit, and counted in the closing summary — the
   hard (exponential) families degrade to annotated sweeps instead of
   hanging the harness. *)

module Gen = Solvers.Gen
open Core

let quick = Array.exists (( = ) "--quick") Sys.argv

(* --timeout=S: per-point wall-clock deadline in seconds (fractions ok). *)
let timeout_flag =
  Array.fold_left
    (fun acc a ->
      let prefix = "--timeout=" in
      let plen = String.length prefix in
      if String.length a > plen && String.sub a 0 plen = prefix then
        match float_of_string_opt (String.sub a plen (String.length a - plen)) with
        | Some s when s > 0. -> Some s
        | _ -> acc
      else acc)
    None Sys.argv

let timed_out_points = ref 0

(* Run [f] under the per-point deadline (when one is set): [Some result]
   on completion, [None] when the deadline cut it short. *)
let with_point_deadline f =
  match timeout_flag with
  | None -> Some (f ())
  | Some s -> (
      match
        Robust.Budget.run
          ~budget:(Robust.Budget.make ~deadline:s ())
          ~partial:(fun _ -> None) f
      with
      | Robust.Budget.Exact r -> Some r
      | Robust.Budget.Partial _ ->
          incr timed_out_points;
          None)

(* One scaling point: elapsed milliseconds plus whether it timed out. *)
let timed_point f =
  let t0 = Unix.gettimeofday () in
  let r = with_point_deadline (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (ms, r = None)

let rng_for seed = Random.State.make [| 0xBEEF; seed |]

(* Least-squares slope of log(ms) against log(n): the apparent polynomial
   degree of the series.  Noise floor: points under 0.05 ms are dominated by
   harness overhead and are skipped; a fit needs >= 2 clean points. *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (n, ms) ->
        if ms >= 0.05 && n > 1 then Some (log (float_of_int n), log ms) else None)
      points
  in
  match pts with
  | _ :: _ :: _ ->
      let m = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
      let denom = (m *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-9 then None
      else Some (((m *. sxy) -. (sx *. sy)) /. denom)
  | _ -> None

(* A scaling row: run [f] on each size, print "size -> ms", annotate with
   the paper's complexity class and the measured growth exponent. *)
let series ~experiment ~paper ~sizes (f : int -> unit) =
  Format.printf "@[<h>%-46s paper: %-18s@]@." experiment paper;
  let points =
    List.map
      (fun n ->
        let ms, timed_out = timed_point (fun () -> f n) in
        if timed_out then
          Format.printf "    n = %-4d %10.2f ms  (timed out)@." n ms
        else Format.printf "    n = %-4d %10.2f ms@." n ms;
        (n, ms, timed_out))
      sizes
  in
  (* Timed-out points measure the deadline, not the workload: keep them out
     of the growth fit. *)
  let fit = List.filter_map (fun (n, ms, t) -> if t then None else Some (n, ms)) points in
  (match loglog_slope fit with
  | Some k when List.length fit >= 2 ->
      Format.printf "    measured growth: t ~ n^%.1f@." k
  | _ -> ());
  Format.printf "@."

let header title =
  Format.printf "@.=============================================================@.";
  Format.printf "%s@." title;
  Format.printf "=============================================================@.@."

(* ------------------------------------------------------------------ *)
(* Advisor cross-check                                                  *)
(* ------------------------------------------------------------------ *)

(* Every Table 8.1 row exercised below is cross-checked against the static
   analyzer before any timing runs: the instance built from the row's
   reduction family must infer exactly the language the row claims to
   exercise, and the complexity advisor must return the row's [~paper]
   annotation verbatim.  A mismatch means the benchmark would be measuring
   the wrong cell — fail loudly rather than print a wrong table. *)

let advisor_row ~row ~problem ~paper ~expect (lang, compat) =
  if lang <> expect then
    failwith
      (Printf.sprintf "advisor cross-check %s: inferred language %s, row expects %s"
         row
         (Qlang.Query.lang_to_string lang)
         (Qlang.Query.lang_to_string expect));
  let cell = Analysis.Advisor.combined problem ~lang ~compat in
  if cell.Analysis.Advisor.cls <> paper then
    failwith
      (Printf.sprintf "advisor cross-check %s: advisor says %s, row says %s" row
         cell.Analysis.Advisor.cls paper);
  Format.printf "  %-34s %-10s %-22s (%s)@." row
    (Qlang.Query.lang_to_string lang)
    cell.Analysis.Advisor.cls cell.Analysis.Advisor.cite

(* The language a row exercises: usually the selection query's, but the
   rows whose hardness lives inside the compatibility constraint (the
   negated-QBF QRPP family) are keyed on Qc's language. *)
let select_lang inst = (Instance.language inst, Instance.has_compat inst)

let compat_lang inst =
  match Instance.compat_language inst with
  | Some l -> (l, Instance.has_compat inst)
  | None -> failwith "advisor cross-check: row has no compatibility query"

let advisor_cross_check () =
  header "Advisor cross-check — inferred languages vs Table 8.1 cells";
  let open Analysis.Advisor in
  let open Qlang.Query in
  let phi = Gen.ea_dnf (rng_for 1) ~m:2 ~n:2 ~nterms:3 in
  let rng = rng_for 3 in
  let cnf1 = Gen.cnf3 rng ~nvars:3 ~nclauses:4 in
  let cnf2 = Gen.cnf3 rng ~nvars:3 ~nclauses:4 in
  let qbf = Gen.qbf (rng_for 3) ~nvars:3 ~nclauses:4 in

  (* RPP *)
  let inst, _ = Reductions.Sigma2.rpp_instance phi in
  advisor_row ~row:"RPP / CQ, with Qc" ~problem:Rpp ~paper:"Πᵖ₂-complete"
    ~expect:L_cq (select_lang inst);
  let inst, _ = Reductions.Satunsat.rpp_instance cnf1 cnf2 in
  advisor_row ~row:"RPP / CQ, without Qc" ~problem:Rpp ~paper:"DP-complete"
    ~expect:L_cq (select_lang inst);
  let db, q = Reductions.Membership.qbf_to_fo qbf in
  let inst, _ = Reductions.Membership.rpp_of_query db (Fo q) [||] in
  advisor_row ~row:"RPP / FO" ~problem:Rpp ~paper:"PSPACE-complete" ~expect:L_fo
    (select_lang inst);
  let db, p = Reductions.Membership.qbf_to_datalognr qbf in
  let inst, _ = Reductions.Membership.rpp_of_query db (Dl p) [||] in
  advisor_row ~row:"RPP / DATALOGnr" ~problem:Rpp ~paper:"PSPACE-complete"
    ~expect:L_datalog_nr (select_lang inst);
  let db = Reductions.Membership.chain_db 8 in
  let inst, _ =
    Reductions.Membership.rpp_of_query db
      (Dl Reductions.Membership.tc_program)
      (Relational.Tuple.of_ints [ 0; 8 ])
  in
  advisor_row ~row:"RPP / DATALOG" ~problem:Rpp ~paper:"EXPTIME-complete"
    ~expect:L_datalog (select_lang inst);

  (* FRP *)
  let inst = Reductions.Sigma2.frp_instance phi in
  advisor_row ~row:"FRP / CQ, with Qc" ~problem:Frp ~paper:"FP^Σᵖ₂-complete"
    ~expect:L_cq (select_lang inst);
  let mi = Gen.maxsat (rng_for 3) ~nvars:4 ~nclauses:3 ~max_weight:8 in
  let inst = Reductions.Np_data.maxsat_instance mi in
  advisor_row ~row:"FRP / CQ, without Qc" ~problem:Frp ~paper:"FPᴺᴾ-complete"
    ~expect:L_sp (select_lang inst);

  (* MBP *)
  let inst, _ = Reductions.Mbp_pair.instance phi phi in
  advisor_row ~row:"MBP / CQ, with Qc" ~problem:Mbp ~paper:"Dᵖ₂-complete"
    ~expect:L_cq (select_lang inst);
  let inst, _ = Reductions.Satunsat.mbp_instance cnf1 cnf2 in
  advisor_row ~row:"MBP / CQ, without Qc" ~problem:Mbp ~paper:"DP-complete"
    ~expect:L_sp (select_lang inst);

  (* CPP *)
  let psi = Gen.dnf3 (rng_for 2) ~nvars:4 ~nterms:3 in
  let inst, _ = Reductions.Counting.pi1_instance ~nx:2 ~ny:2 psi in
  advisor_row ~row:"CPP / CQ, with Qc" ~problem:Cpp ~paper:"#·coNP-complete"
    ~expect:L_cq (select_lang inst);
  let psi2 = Gen.cnf3 (rng_for 2) ~nvars:4 ~nclauses:3 in
  let inst, _ = Reductions.Counting.sigma1_instance ~nx:2 ~ny:2 psi2 in
  advisor_row ~row:"CPP / CQ, without Qc" ~problem:Cpp ~paper:"#·NP-complete"
    ~expect:L_cq (select_lang inst);

  (* QRPP *)
  let inst, _, _, _ = Reductions.Sigma2.qrpp_instance phi in
  advisor_row ~row:"QRPP / CQ" ~problem:Qrpp ~paper:"Σᵖ₂-complete" ~expect:L_cq
    (select_lang inst);
  let inst, _, _, _ =
    Reductions.Relax_adjust_mem.qrpp_instance Reductions.Relax_adjust_mem.In_fo
      qbf
  in
  advisor_row ~row:"QRPP / FO" ~problem:Qrpp ~paper:"PSPACE-complete"
    ~expect:L_fo (select_lang inst);
  let inst, _, _, _ =
    Reductions.Relax_adjust_mem.qrpp_instance
      Reductions.Relax_adjust_mem.In_datalognr qbf
  in
  advisor_row ~row:"QRPP / DATALOGnr Qc" ~problem:Qrpp ~paper:"PSPACE-complete"
    ~expect:L_datalog_nr (compat_lang inst);

  (* ARPP *)
  let inst, _, _, _ = Reductions.Sigma2.arpp_instance phi in
  advisor_row ~row:"ARPP / CQ" ~problem:Arpp ~paper:"Σᵖ₂-complete" ~expect:L_cq
    (select_lang inst);
  let inst, _, _, _ =
    Reductions.Relax_adjust_mem.arpp_instance
      Reductions.Relax_adjust_mem.In_datalognr qbf
  in
  advisor_row ~row:"ARPP / DATALOGnr" ~problem:Arpp ~paper:"PSPACE-complete"
    ~expect:L_datalog_nr (select_lang inst);

  (* Table 8.2 const-bound collapse: the dispatcher's advisor report for a
     constant-bound instance must land in the Corollary 6.1 cells. *)
  let poi =
    let db =
      Workload.Travel.random_db (rng_for 5) ~ncities:4 ~nflights:20 ~npois:20
    in
    Instance.make ~db ~select:(Identity "poi") ~cost:Rating.card_or_infinite
      ~value:(Rating.sum_col ~nonneg:true 4)
      ~budget:2. ~size_bound:(Size_bound.Const 2) ()
  in
  List.iter
    (fun (problem, cls) ->
      let r = Dispatch.report poi ~problem in
      if r.data.cls <> cls || r.data.cite <> "Corollary 6.1" then
        failwith
          (Printf.sprintf
             "advisor cross-check: %s const bound: advisor says %s (%s), \
              expected %s (Corollary 6.1)"
             (problem_to_string problem) r.data.cls r.data.cite cls);
      Format.printf "  %-34s %-10s %-22s (%s)@."
        (problem_to_string problem ^ " constant bound")
        (Qlang.Query.lang_to_string r.lang)
        r.data.cls r.data.cite)
    [ (Rpp, "PTIME"); (Frp, "FP"); (Mbp, "PTIME"); (Cpp, "FP") ];
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Figure 4.1                                                           *)
(* ------------------------------------------------------------------ *)

let figure_4_1 () =
  header "Figure 4.1 — the Boolean gadget relations";
  List.iter
    (fun rel -> Format.printf "%a@.@." Relational.Relation.pp rel)
    [
      Reductions.Gadgets.r01;
      Reductions.Gadgets.ror;
      Reductions.Gadgets.rand;
      Reductions.Gadgets.rnot;
    ]

(* ------------------------------------------------------------------ *)
(* Table 8.1 — combined complexity                                      *)
(* ------------------------------------------------------------------ *)

let s2_sizes = if quick then [ 2; 3 ] else [ 2; 3; 4 ]
let sat_sizes = if quick then [ 3; 4 ] else [ 3; 4; 5 ]
let qbf_sizes = if quick then [ 3; 4; 5 ] else [ 3; 4; 5; 6; 7 ]

let table_8_1 () =
  header
    "Table 8.1 — combined complexity (time vs query size, on the\n\
     lower-bound reduction family of each cell)";

  (* RPP *)
  series ~experiment:"RPP / CQ, with Qc (∃*∀*3DNF family)"
    ~paper:"Πᵖ₂-complete" ~sizes:s2_sizes (fun n ->
      let phi = Gen.ea_dnf (rng_for n) ~m:n ~n ~nterms:(n + 1) in
      let inst, pkgs = Reductions.Sigma2.rpp_instance phi in
      ignore (Rpp.is_topk inst pkgs));
  series ~experiment:"RPP / CQ, without Qc (SAT-UNSAT family)"
    ~paper:"DP-complete" ~sizes:sat_sizes (fun n ->
      let rng = rng_for n in
      let phi1 = Gen.cnf3 rng ~nvars:n ~nclauses:(n + 1) in
      let phi2 = Gen.cnf3 rng ~nvars:n ~nclauses:(n + 1) in
      let inst, pkgs = Reductions.Satunsat.rpp_instance phi1 phi2 in
      ignore (Rpp.is_topk inst pkgs));
  series ~experiment:"RPP / FO (Q3SAT membership family)"
    ~paper:"PSPACE-complete" ~sizes:qbf_sizes (fun n ->
      let qbf = Gen.qbf (rng_for n) ~nvars:n ~nclauses:(n + 1) in
      let db, q = Reductions.Membership.qbf_to_fo qbf in
      let inst, pkgs = Reductions.Membership.rpp_of_query db (Qlang.Query.Fo q) [||] in
      ignore (Rpp.is_topk inst pkgs));
  series ~experiment:"RPP / DATALOGnr (Q3SAT membership family)"
    ~paper:"PSPACE-complete" ~sizes:qbf_sizes (fun n ->
      let qbf = Gen.qbf (rng_for n) ~nvars:n ~nclauses:(n + 1) in
      let db, p = Reductions.Membership.qbf_to_datalognr qbf in
      let inst, pkgs = Reductions.Membership.rpp_of_query db (Qlang.Query.Dl p) [||] in
      ignore (Rpp.is_topk inst pkgs));
  series ~experiment:"RPP / DATALOG (recursive membership family)"
    ~paper:"EXPTIME-complete" ~sizes:(if quick then [ 8; 16 ] else [ 8; 16; 32 ])
    (fun n ->
      let db = Reductions.Membership.chain_db n in
      let inst, pkgs =
        Reductions.Membership.rpp_of_query db
          (Qlang.Query.Dl Reductions.Membership.tc_program)
          (Relational.Tuple.of_ints [ 0; n ])
      in
      ignore (Rpp.is_topk inst pkgs));

  (* FRP *)
  series ~experiment:"FRP / CQ, with Qc (maximum-Σᵖ₂ family)"
    ~paper:"FP^Σᵖ₂-complete" ~sizes:s2_sizes (fun n ->
      let phi = Gen.ea_dnf (rng_for n) ~m:n ~n ~nterms:(n + 1) in
      let inst = Reductions.Sigma2.frp_instance phi in
      let lo, hi = Reductions.Sigma2.frp_val_range phi in
      ignore (Frp.oracle inst ~k:1 ~val_lo:lo ~val_hi:hi));
  series ~experiment:"FRP / CQ, without Qc (MAX-WEIGHT SAT family)"
    ~paper:"FPᴺᴾ-complete" ~sizes:sat_sizes (fun n ->
      let mi = Gen.maxsat (rng_for n) ~nvars:(n + 1) ~nclauses:n ~max_weight:8 in
      let inst = Reductions.Np_data.maxsat_instance mi in
      ignore (Frp.enumerate inst ~k:1));

  (* MBP *)
  series ~experiment:"MBP / CQ, with Qc (∃∀3DNF–∀∃3CNF family)"
    ~paper:"Dᵖ₂-complete" ~sizes:(if quick then [ 2 ] else [ 2; 3 ])
    (fun n ->
      let rng = rng_for n in
      let phi1 = Gen.ea_dnf rng ~m:n ~n ~nterms:n in
      let phi2 = Gen.ea_dnf rng ~m:n ~n ~nterms:n in
      let inst, b = Reductions.Mbp_pair.instance phi1 phi2 in
      ignore (Mbp.is_max_bound inst ~k:1 ~bound:b));
  series ~experiment:"MBP / CQ, without Qc (SAT-UNSAT family)"
    ~paper:"DP-complete" ~sizes:sat_sizes (fun n ->
      let rng = rng_for n in
      let phi1 = Gen.cnf3 rng ~nvars:n ~nclauses:n in
      let phi2 = Gen.cnf3 rng ~nvars:n ~nclauses:(n + 1) in
      let inst, b = Reductions.Satunsat.mbp_instance phi1 phi2 in
      ignore (Mbp.is_max_bound inst ~k:1 ~bound:b));

  (* CPP *)
  series ~experiment:"CPP / CQ, with Qc (#Π₁SAT family)"
    ~paper:"#·coNP-complete" ~sizes:s2_sizes (fun n ->
      let psi = Gen.dnf3 (rng_for n) ~nvars:(n + 2) ~nterms:(n + 1) in
      let inst, b = Reductions.Counting.pi1_instance ~nx:n ~ny:2 psi in
      ignore (Cpp.count inst ~bound:b));
  series ~experiment:"CPP / CQ, without Qc (#Σ₁SAT family)"
    ~paper:"#·NP-complete" ~sizes:s2_sizes (fun n ->
      let psi = Gen.cnf3 (rng_for n) ~nvars:(n + 2) ~nclauses:(n + 1) in
      let inst, b = Reductions.Counting.sigma1_instance ~nx:n ~ny:2 psi in
      ignore (Cpp.count inst ~bound:b));

  (* QRPP *)
  series ~experiment:"QRPP / CQ (∃*∀*3DNF family)"
    ~paper:"Σᵖ₂-complete" ~sizes:s2_sizes (fun n ->
      let phi = Gen.ea_dnf (rng_for n) ~m:n ~n ~nterms:(n + 1) in
      let inst, sites, b, g = Reductions.Sigma2.qrpp_instance phi in
      ignore (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g));
  series ~experiment:"QRPP / FO (Q3SAT membership family)"
    ~paper:"PSPACE-complete" ~sizes:qbf_sizes (fun n ->
      let qbf = Gen.qbf (rng_for n) ~nvars:n ~nclauses:(n + 1) in
      let inst, sites, b, g =
        Reductions.Relax_adjust_mem.qrpp_instance Reductions.Relax_adjust_mem.In_fo qbf
      in
      ignore (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g));
  series ~experiment:"QRPP / DATALOGnr Qc (negated-QBF family)"
    ~paper:"PSPACE-complete" ~sizes:qbf_sizes (fun n ->
      let qbf = Gen.qbf (rng_for n) ~nvars:n ~nclauses:(n + 1) in
      let inst, sites, b, g =
        Reductions.Relax_adjust_mem.qrpp_instance
          Reductions.Relax_adjust_mem.In_datalognr qbf
      in
      ignore (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g));

  (* ARPP *)
  series ~experiment:"ARPP / CQ (∃*∀*3DNF family)"
    ~paper:"Σᵖ₂-complete" ~sizes:s2_sizes (fun n ->
      let phi = Gen.ea_dnf (rng_for n) ~m:n ~n ~nterms:(n + 1) in
      let inst, extra, b, k' = Reductions.Sigma2.arpp_instance phi in
      ignore (Adjust.arpp inst ~extra ~k:1 ~bound:b ~max_changes:k'));
  series ~experiment:"ARPP / DATALOGnr (Q3SAT membership family)"
    ~paper:"PSPACE-complete" ~sizes:qbf_sizes (fun n ->
      let qbf = Gen.qbf (rng_for n) ~nvars:n ~nclauses:(n + 1) in
      let inst, extra, b, k' =
        Reductions.Relax_adjust_mem.arpp_instance
          Reductions.Relax_adjust_mem.In_datalognr qbf
      in
      ignore (Adjust.arpp inst ~extra ~k:1 ~bound:b ~max_changes:k'))

(* ------------------------------------------------------------------ *)
(* Table 8.2 — data complexity                                          *)
(* ------------------------------------------------------------------ *)

let table_8_2 () =
  header
    "Table 8.2 — data complexity (time vs |D|; queries fixed).\n\
     Poly-bounded packages (left column of the table) grow with the hard\n\
     families; constant-bounded packages (right column) stay polynomial";

  let clause_sizes = if quick then [ 3; 5 ] else [ 3; 5; 7 ] in
  series ~experiment:"RPP poly-bounded (Lemma 4.4 family, |D| = 7r)"
    ~paper:"coNP-complete" ~sizes:clause_sizes (fun r ->
      let cnf = Gen.cnf3 (rng_for r) ~nvars:(r + 1) ~nclauses:r in
      let inst, pkgs = Reductions.Np_data.rpp_instance cnf in
      ignore (Rpp.is_topk inst pkgs));
  series ~experiment:"FRP poly-bounded (MAX-WEIGHT SAT family)"
    ~paper:"FPᴺᴾ-complete" ~sizes:clause_sizes (fun r ->
      let mi = Gen.maxsat (rng_for r) ~nvars:(r + 1) ~nclauses:r ~max_weight:9 in
      let inst = Reductions.Np_data.maxsat_instance mi in
      ignore (Frp.enumerate inst ~k:1));
  series ~experiment:"MBP poly-bounded (SAT-UNSAT family)"
    ~paper:"DP-complete" ~sizes:clause_sizes (fun r ->
      let rng = rng_for r in
      let phi1 = Gen.cnf3 rng ~nvars:(r + 1) ~nclauses:r in
      let phi2 = Gen.cnf3 rng ~nvars:(r + 1) ~nclauses:r in
      let inst, b = Reductions.Satunsat.mbp_instance phi1 phi2 in
      ignore (Mbp.is_max_bound inst ~k:1 ~bound:b));
  series ~experiment:"CPP poly-bounded (#SAT family)"
    ~paper:"#·P-complete" ~sizes:clause_sizes (fun r ->
      let cnf = Gen.cnf3 (rng_for r) ~nvars:(r + 1) ~nclauses:r in
      let inst, b, _ = Reductions.Np_data.sharpsat_instance cnf in
      ignore (Cpp.count inst ~bound:b));
  series ~experiment:"QRPP (3SAT family, fixed query)"
    ~paper:"NP-complete" ~sizes:(if quick then [ 2 ] else [ 2; 3 ])
    (fun r ->
      let cnf = Gen.cnf3 (rng_for r) ~nvars:(r + 2) ~nclauses:r in
      let inst, sites, b, g = Reductions.Relax_np.instance cnf in
      ignore (Relax.qrpp inst ~sites ~k:1 ~bound:b ~max_gap:g));
  series ~experiment:"ARPP (3SAT family, fixed query)"
    ~paper:"NP-complete" ~sizes:[ 2 ]
    (fun r ->
      let cnf = Gen.cnf3 (rng_for r) ~nvars:3 ~nclauses:r in
      let inst, extra, k, b, k' = Reductions.Adjust_np.instance cnf in
      ignore (Adjust.arpp inst ~extra ~k ~bound:b ~max_changes:k'));

  Format.printf
    "--- constant package bound (Corollary 6.1): same problems,@\n\
    \    growing travel database, Bp = 2 ---@.@.";
  let db_sizes = if quick then [ 50; 100 ] else [ 50; 100; 200; 400 ] in
  let poi_instance n =
    let db = Workload.Travel.random_db (rng_for n) ~ncities:6 ~nflights:n ~npois:n in
    Instance.make ~db ~select:(Qlang.Query.Identity "poi")
      ~cost:Rating.card_or_infinite
      ~value:(Rating.sum_col ~nonneg:true 4)
      ~budget:2.
      ~size_bound:(Size_bound.Const 2) ()
  in
  series ~experiment:"RPP constant bound (|N| <= 2, identity query)"
    ~paper:"PTIME" ~sizes:db_sizes (fun n ->
      let inst = poi_instance n in
      match Special.topk inst ~k:1 with
      | Some sel -> ignore (Special.is_topk inst sel)
      | None -> ());
  series ~experiment:"FRP constant bound" ~paper:"FP" ~sizes:db_sizes (fun n ->
      ignore (Special.topk (poi_instance n) ~k:2));
  series ~experiment:"MBP constant bound" ~paper:"PTIME" ~sizes:db_sizes (fun n ->
      ignore (Special.max_bound (poi_instance n) ~k:2));
  series ~experiment:"CPP constant bound" ~paper:"FP" ~sizes:db_sizes (fun n ->
      ignore (Special.count (poi_instance n) ~bound:100.));
  series ~experiment:"QRPP items (Corollary 7.3)" ~paper:"PTIME" ~sizes:db_sizes
    (fun n ->
      let db = Workload.Travel.random_db (rng_for n) ~ncities:6 ~nflights:n ~npois:n in
      let cheap =
        {
          Items.u_name = "cheap";
          u_eval =
            (fun t ->
              match Relational.Tuple.get t 1 with
              | Relational.Value.Int p -> -.float_of_int p
              | _ -> 0.);
        }
      in
      let it =
        Items.make ~db
          ~select:(Qlang.Query.Fo (Workload.Travel.direct_flights "c0" "c1" 1))
          ~utility:cheap ~dist:Workload.Travel.dist_env ()
      in
      let sites =
        [ { Relax.kind = Relax.Const_site (Relational.Value.Int 1); dfun = "days" } ]
      in
      ignore (Relax.qrpp_items it ~sites ~k:1 ~bound:(-10000.) ~max_gap:3.))

(* ------------------------------------------------------------------ *)
(* Corollary 6.2 — SP queries: variable vs constant package size        *)
(* ------------------------------------------------------------------ *)

let corollary_6_2 () =
  header
    "Corollary 6.2 — SP queries: variable package size stays hard\n\
     (Lemma 4.4 uses an identity query), constant size is PTIME";
  let clause_sizes = if quick then [ 3; 5 ] else [ 3; 5; 7 ] in
  series ~experiment:"SP + variable size (compatibility search)"
    ~paper:"coNP/NP-complete" ~sizes:clause_sizes (fun r ->
      let cnf = Gen.cnf3 (rng_for r) ~nvars:(r + 1) ~nclauses:r in
      let inst = Reductions.Np_data.compat_instance cnf in
      ignore
        (Reductions.Sigma2.compat_holds inst
           ~bound:(Reductions.Np_data.compat_bound cnf)));
  let db_sizes = if quick then [ 50; 100 ] else [ 100; 200; 400 ] in
  series ~experiment:"SP + constant size (single-scan eval + FP top-k)"
    ~paper:"PTIME/FP" ~sizes:db_sizes (fun n ->
      let db = Workload.Teams.random_db (rng_for n) ~nexperts:n ~nconflicts:(n / 4) in
      let q = Qlang.Query.Fo (Workload.Teams.experts_with_skill "backend") in
      (* The corollary is checked, not assumed: the selection must be SP
         and its plan certified as the single scan. *)
      (match (Qlang.Query.language q, Analysis.Plan_check.certify q (Qlang.Query.plan db q)) with
      | Qlang.Query.L_sp, Analysis.Advisor.Certified _ -> ()
      | _, c ->
          failwith
            ("Corollary 6.2: the SP selection is not a certified single scan: "
            ^ Analysis.Advisor.certificate_to_string c));
      ignore (Relational.Relation.cardinal (Qlang.Query.eval db q));
      let inst =
        Instance.make ~db ~select:q
          ~cost:Rating.card_or_infinite
          ~value:(Rating.sum_col ~nonneg:true 3)
          ~budget:2. ~size_bound:(Size_bound.Const 2) ()
      in
      ignore (Special.topk inst ~k:3))

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations — design choices called out in DESIGN.md";
  (* FRP solver comparison: exhaustive enumeration vs additive branch &
     bound vs the greedy heuristic, on an additive-rating instance of
     growing size. *)
  let additive_instance n =
    let rng = rng_for n in
    let rel =
      Relational.Relation.of_list
        (Relational.Schema.make "R" [ "id"; "w" ])
        (List.init n (fun i ->
             Relational.Tuple.of_ints [ i; Random.State.int rng 50 ]))
    in
    Instance.make
      ~db:(Relational.Database.of_relations [ rel ])
      ~select:(Qlang.Query.Identity "R") ~cost:Rating.card_or_infinite
      ~value:(Rating.sum_col ~nonneg:true 1)
      ~budget:3. ()
  in
  let item_w t =
    match Relational.Tuple.get t 1 with
    | Relational.Value.Int w -> float_of_int w
    | _ -> 0.
  in
  let frp_sizes = if quick then [ 10; 14 ] else [ 10; 14; 18 ] in
  series ~experiment:"FRP additive: enumerate" ~paper:"(solver ablation)"
    ~sizes:frp_sizes (fun n -> ignore (Frp.enumerate (additive_instance n) ~k:2));
  series ~experiment:"FRP additive: branch & bound" ~paper:"(solver ablation)"
    ~sizes:frp_sizes (fun n ->
      ignore (Frp.branch_and_bound (additive_instance n) ~item_value:item_w ~k:2));
  series ~experiment:"FRP additive: greedy heuristic" ~paper:"(solver ablation)"
    ~sizes:frp_sizes (fun n -> ignore (Frp.greedy (additive_instance n) ~k:2));
  (* Exact vs Monte-Carlo counting. *)
  series ~experiment:"CPP additive: exact count" ~paper:"(counting ablation)"
    ~sizes:frp_sizes (fun n ->
      ignore (Cpp.count (additive_instance n) ~bound:60.));
  series ~experiment:"CPP additive: Monte-Carlo (500/size)"
    ~paper:"(counting ablation)" ~sizes:frp_sizes (fun n ->
      ignore
        (Cpp.estimate (additive_instance n) ~bound:60. ~samples_per_size:500
           (rng_for (n + 1))))

let () =
  Format.printf "Package recommendation — paper-reproduction benchmarks@.";
  Format.printf
    "(Deng, Fan, Geerts: On the Complexity of Package Recommendation Problems)@.";
  if quick then Format.printf "[quick mode]@.";
  advisor_cross_check ();
  figure_4_1 ();
  table_8_1 ();
  table_8_2 ();
  corollary_6_2 ();
  ablations ();
  (match timeout_flag with
  | Some s ->
      Format.printf "@.%d point(s) timed out (per-point deadline %gs)@."
        !timed_out_points s
  | None -> ());
  Format.printf "@.done.@."
