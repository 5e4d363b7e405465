open Qlang

type problem = Rpp | Frp | Mbp | Cpp | Qrpp | Arpp

let all_problems = [ Rpp; Frp; Mbp; Cpp; Qrpp; Arpp ]

let problem_to_string = function
  | Rpp -> "RPP"
  | Frp -> "FRP"
  | Mbp -> "MBP"
  | Cpp -> "CPP"
  | Qrpp -> "QRPP"
  | Arpp -> "ARPP"

let problem_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "RPP" -> Some Rpp
  | "FRP" -> Some Frp
  | "MBP" -> Some Mbp
  | "CPP" -> Some Cpp
  | "QRPP" -> Some Qrpp
  | "ARPP" -> Some Arpp
  | _ -> None

type cell = {
  cls : string;
  cite : string;
}

type flags = {
  compat : bool;
  const_bound : bool;
  items : bool;
  ptime_compat : bool;
}

let no_flags =
  { compat = false; const_bound = false; items = false; ptime_compat = false }

type report = {
  problem : problem;
  lang : Query.lang;
  flags : flags;
  combined : cell;
  data : cell;
  notes : string list;
}

(* The language columns of Table 8.1 collapse into three bands: the paper
   proves identical bounds for SP/CQ/UCQ/∃FO⁺ (the CQ lower bounds already
   use SP-expressible gadgets, Corollary 6.2), for FO/DATALOGnr, and for
   full DATALOG. *)
type band = B_cq | B_fo | B_datalog

let band_of_lang = function
  | Query.L_sp | Query.L_cq | Query.L_ucq | Query.L_efo_plus -> B_cq
  | Query.L_fo | Query.L_datalog_nr -> B_fo
  | Query.L_datalog -> B_datalog

(* Table 8.1 — combined complexity.  The CQ band distinguishes "with Qc"
   from "without Qc" (dropping compatibility constraints lowers the CQ
   cells and only those); the FO/DATALOGnr and DATALOG bands do not (the
   membership reductions never use Qc). *)
let combined problem ~lang ~compat =
  let band = band_of_lang lang in
  match (problem, band, compat) with
  (* RPP (Section 4) *)
  | Rpp, B_cq, true -> { cls = "Πᵖ₂-complete"; cite = "Theorem 4.1" }
  | Rpp, B_cq, false -> { cls = "DP-complete"; cite = "Theorem 4.5" }
  | Rpp, B_fo, _ -> { cls = "PSPACE-complete"; cite = "Theorem 4.1" }
  | Rpp, B_datalog, _ -> { cls = "EXPTIME-complete"; cite = "Theorem 4.1" }
  (* FRP (Theorem 5.1) *)
  | Frp, B_cq, true -> { cls = "FP^Σᵖ₂-complete"; cite = "Theorem 5.1" }
  | Frp, B_cq, false -> { cls = "FPᴺᴾ-complete"; cite = "Theorem 5.1" }
  | Frp, B_fo, _ -> { cls = "FPSPACE(poly)-complete"; cite = "Theorem 5.1" }
  | Frp, B_datalog, _ -> { cls = "FEXPTIME-complete"; cite = "Theorem 5.1" }
  (* MBP (Theorem 5.2) *)
  | Mbp, B_cq, true -> { cls = "Dᵖ₂-complete"; cite = "Theorem 5.2" }
  | Mbp, B_cq, false -> { cls = "DP-complete"; cite = "Theorem 5.2" }
  | Mbp, B_fo, _ -> { cls = "PSPACE-complete"; cite = "Theorem 5.2" }
  | Mbp, B_datalog, _ -> { cls = "EXPTIME-complete"; cite = "Theorem 5.2" }
  (* CPP (Theorem 5.3) *)
  | Cpp, B_cq, true -> { cls = "#·coNP-complete"; cite = "Theorem 5.3" }
  | Cpp, B_cq, false -> { cls = "#·NP-complete"; cite = "Theorem 5.3" }
  | Cpp, B_fo, _ -> { cls = "#·PSPACE-complete"; cite = "Theorem 5.3" }
  | Cpp, B_datalog, _ -> { cls = "#·EXPTIME-complete"; cite = "Theorem 5.3" }
  (* QRPP (Section 7) *)
  | Qrpp, B_cq, _ -> { cls = "Σᵖ₂-complete"; cite = "Theorem 7.2" }
  | Qrpp, B_fo, _ -> { cls = "PSPACE-complete"; cite = "Theorem 7.2" }
  | Qrpp, B_datalog, _ -> { cls = "EXPTIME-complete"; cite = "Theorem 7.2" }
  (* ARPP (Section 8) *)
  | Arpp, B_cq, _ -> { cls = "Σᵖ₂-complete"; cite = "Theorem 8.1" }
  | Arpp, B_fo, _ -> { cls = "PSPACE-complete"; cite = "Theorem 8.1" }
  | Arpp, B_datalog, _ -> { cls = "EXPTIME-complete"; cite = "Theorem 8.1" }

(* Table 8.2 — data complexity, polynomially-bounded packages. *)
let data_poly = function
  | Rpp -> { cls = "coNP-complete"; cite = "Theorem 4.3" }
  | Frp -> { cls = "FPᴺᴾ-complete"; cite = "Theorem 5.1" }
  | Mbp -> { cls = "DP-complete"; cite = "Theorem 5.2" }
  | Cpp -> { cls = "#·P-complete"; cite = "Theorem 5.3" }
  | Qrpp -> { cls = "NP-complete"; cite = "Theorem 7.2" }
  | Arpp -> { cls = "NP-complete"; cite = "Theorem 8.1" }

(* Constant package-size bounds collapse the decision problems to PTIME
   and the function/counting problems to FP (Corollary 6.1) — except
   ARPP, which stays NP-complete even for single-item packages
   (Corollary 8.2).  QRPP over items is PTIME by Corollary 7.3. *)
let data problem ~flags =
  match problem with
  | Arpp -> { cls = "NP-complete"; cite = "Corollary 8.2" }
  | Qrpp when flags.items -> { cls = "PTIME"; cite = "Corollary 7.3" }
  | Rpp when flags.const_bound -> { cls = "PTIME"; cite = "Corollary 6.1" }
  | Mbp when flags.const_bound -> { cls = "PTIME"; cite = "Corollary 6.1" }
  | Qrpp when flags.const_bound -> { cls = "PTIME"; cite = "Corollary 6.1" }
  | Frp when flags.const_bound -> { cls = "FP"; cite = "Corollary 6.1" }
  | Cpp when flags.const_bound -> { cls = "FP"; cite = "Corollary 6.1" }
  | (Rpp | Frp | Mbp | Cpp | Qrpp) as p -> data_poly p

let advise problem ~lang ~flags =
  let notes = ref [] in
  let note s = notes := s :: !notes in
  if lang = Query.L_sp then
    note
      "SP query: the lower bounds survive (Corollary 6.2 — the Lemma 4.4 \
       family uses an identity query), but candidate generation is a \
       single scan";
  if flags.ptime_compat then
    note
      "PTIME compatibility predicate (Corollary 6.3): data complexity is \
       no worse than with CQ constraints";
  if problem = Arpp && (flags.const_bound || flags.items) then
    note
      "constant bounds do not help ARPP: NP-hard even for single items \
       (Corollary 8.2)";
  if flags.const_bound && problem <> Arpp then
    note
      "constant package-size bound: enumeration over the O(|D|^Bp) \
       candidate packages is polynomial (Corollary 6.1)";
  {
    problem;
    lang;
    flags;
    combined = combined problem ~lang ~compat:flags.compat;
    data = data problem ~flags;
    notes = List.rev !notes;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>problem:  %s@,language: %s%s@,"
    (problem_to_string r.problem)
    (Query.lang_to_string r.lang)
    (if r.flags.compat then " (with compatibility constraints)"
     else " (no compatibility constraints)");
  Format.fprintf ppf "combined: %s (%s)@,data:     %s (%s)" r.combined.cls
    r.combined.cite r.data.cls r.data.cite;
  List.iter (fun n -> Format.fprintf ppf "@,note:     %s" n) r.notes;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Plan-shape certification                                            *)
(* ------------------------------------------------------------------ *)

type certificate = Certified of string | Violation of string

let certificate_ok = function Certified _ -> true | Violation _ -> false

let certificate_to_string = function
  | Certified s -> "certified: " ^ s
  | Violation s -> "VIOLATION: " ^ s

(* What the complexity analysis promises about the physical plan.  Each
   language band has a shape invariant the planner must respect; the
   certificate is checked by the tests and printed by [--explain] so a
   planner regression (say, an SP query suddenly compiling to a join) is
   caught as a shape violation rather than as a silent slowdown. *)
let certify_plan q plan =
  let s = Plan.shape plan in
  let joins = s.Plan.hash_joins + s.Plan.index_joins in
  let scans = s.Plan.scans in
  match q with
  | Query.Identity _ ->
      Certified "identity query: direct relation lookup, no plan nodes"
  | Query.Empty_query -> Certified "empty query: constant empty answer"
  | Query.Dl p -> (
      (* Table 8.1's tractable Datalog cells rely on the fixpoint being
         stratified exactly as the program demands and on semi-naive
         evaluation of every recursive rule; certify both so [--explain]
         never shows a tractable cell as uncertified. *)
      match plan with
      | Plan.Fixpoint dp ->
          if s.Plan.strata < 1 then
            Violation "Datalog query compiled without a fixpoint stratum"
          else if
            match Datalog.strata_count p with
            | Some n -> s.Plan.strata <> n
            | None -> true
          then
            Violation
              (Printf.sprintf
                 "plan has %d stratum/strata but the least stratification \
                  needs %s"
                 s.Plan.strata
                 (match Datalog.strata_count p with
                 | Some n -> string_of_int n
                 | None -> "a stratifiable program"))
          else if Datalog.is_nonrecursive p then
            Certified
              (Printf.sprintf
                 "DATALOGnr program: %d stratum/strata, no recursion, %d \
                  anti-join(s), %d complement(s)"
                 s.Plan.strata s.Plan.anti_joins s.Plan.complements)
          else
            let naive_recursive =
              (* a recursive rule evaluated only via its full body would
                 re-derive everything each round *)
              List.exists
                (fun stp ->
                  List.exists
                    (fun rp ->
                      rp.Plan.rp_deltas = []
                      && List.exists
                           (fun (idb, _) -> Plan.mentions_rel idb rp.Plan.rp_full)
                           stp.Plan.st_idbs)
                    stp.Plan.st_rules)
                dp.Plan.dp_strata
            in
            let ndeltas =
              List.fold_left
                (fun acc stp ->
                  List.fold_left
                    (fun acc rp -> acc + List.length rp.Plan.rp_deltas)
                    acc stp.Plan.st_rules)
                0 dp.Plan.dp_strata
            in
            if naive_recursive then
              Violation
                "recursive rule evaluated naively: no semi-naive delta \
                 variants"
            else
              Certified
                (Printf.sprintf
                   "DATALOG fixpoint over %d stratum/strata, semi-naive \
                    (%d delta variant(s)), %d anti-join(s), %d complement(s)"
                   s.Plan.strata ndeltas s.Plan.anti_joins s.Plan.complements)
      | _ -> Violation "Datalog query compiled without a fixpoint plan")
  | Query.Fo fq -> (
      match Fragment.classify fq.Ast.body with
      | Fragment.Sp ->
          (* Corollary 6.2: SP candidate generation is one scan.  Filters
             ride along (the ψ built-ins); anything else is a violation. *)
          if
            scans = 1 && joins = 0 && s.Plan.unions = 0
            && s.Plan.complements = 0 && s.Plan.extends = 0
            && s.Plan.builtins = 0 && s.Plan.disjuncts <= 1
          then Certified "SP query: single scan (Corollary 6.2)"
          else
            Violation
              (Printf.sprintf
                 "SP query must compile to a single scan, got %d scan(s), \
                  %d join(s), %d union(s), %d complement(s)"
                 scans joins s.Plan.unions s.Plan.complements)
      | Fragment.Cq | Fragment.Ucq | Fragment.Efo_plus ->
          (* Positive fragments never negate: no active-domain complement
             and no anti-join. *)
          if s.Plan.complements = 0 && s.Plan.anti_joins = 0 then
            Certified
              (Printf.sprintf
                 "positive fragment: negation-free plan (0 complement(s), 0 \
                  anti-join(s), %d scan(s), %d join(s), %d disjunct(s))"
                 scans joins s.Plan.disjuncts)
          else
            Violation
              (Printf.sprintf
                 "positive fragment compiled with %d active-domain \
                  complement(s) and %d anti-join(s)"
                 s.Plan.complements s.Plan.anti_joins)
      | Fragment.Fo ->
          if s.Plan.strata = 0 then
            Certified
              (Printf.sprintf
                 "FO query: structural lowering (%d anti-join(s), %d \
                  complement(s), %d built-in node(s))"
                 s.Plan.anti_joins s.Plan.complements s.Plan.builtins)
          else Violation "FO query compiled to a fixpoint plan")
