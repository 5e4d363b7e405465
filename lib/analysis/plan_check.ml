open Qlang
module Database = Relational.Database
module Relation = Relational.Relation
module Smap = Map.Make (String)

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Pass 1: schema/arity typing                                         *)
(* ------------------------------------------------------------------ *)

(* The typing environment is the set of relations the interpreter could
   resolve: base database, caller-supplied overlay relations, and (inside
   a fixpoint) the IDB views in scope. *)
let db_env ?(extra = []) db =
  let rels =
    List.fold_left
      (fun m r ->
        Smap.add (Relation.schema r).Relational.Schema.name (Relation.arity r) m)
      Smap.empty (Database.relations db)
  in
  List.fold_left (fun m (n, k) -> Smap.add n k m) rels extra

let node_ctx n = Format.asprintf "node %d: %a" n.Plan.id Plan.node_label n
let vars_str vs = "[" ^ String.concat ", " vs ^ "]"

let rec check_node env diags n =
  List.iter (check_node env diags) (Plan.children n);
  let add d = diags := d :: !diags in
  let err code msg = add (Diagnostic.error ~context:(node_ctx n) code msg) in
  (match n.Plan.op with
  | Plan.Scan (a, _) | Plan.Index_join (_, a, _) -> (
      match Smap.find_opt a.Ast.rel env with
      | None ->
          err "P001"
            (sprintf "unknown relation %s: the interpreter would fail at this node"
               a.Ast.rel)
      | Some k ->
          let arity = List.length a.Ast.args in
          if arity <> k then
            err "P002"
              (sprintf "atom %s has arity %d but relation %s has arity %d"
                 a.Ast.rel arity a.Ast.rel k))
  | _ -> ());
  let expected = Plan.op_vars n.Plan.op in
  if n.Plan.nvars <> expected then
    err "P003"
      (sprintf "node declares variables %s but its shape binds %s"
         (vars_str n.Plan.nvars) (vars_str expected));
  match n.Plan.op with
  | Plan.Scan (a, keep) ->
      let av = Plan.atom_vars_sorted a in
      let missing = List.filter (fun v -> not (List.mem v av)) keep in
      if missing <> [] then
        err "P009"
          (sprintf "scan keeps variable(s) %s that atom %s never binds"
             (vars_str missing) a.Ast.rel)
  | Plan.Index_join (c, a, keep) ->
      let jv = Plan.join_vars c a in
      let missing = List.filter (fun v -> not (List.mem v jv)) keep in
      if missing <> [] then
        err "P009"
          (sprintf
             "index-join keeps variable(s) %s that neither its input nor atom \
              %s binds"
             (vars_str missing) a.Ast.rel)
  | Plan.Cached (b, _) ->
      let bv = Array.to_list (Bindings.vars b) in
      if bv <> n.Plan.nvars then
        err "P003"
          (sprintf "frozen bindings bind %s but the node declares %s"
             (vars_str bv) (vars_str n.Plan.nvars))
  | Plan.Filter (c, child) ->
      let missing =
        List.filter (fun v -> not (List.mem v child.Plan.nvars)) (Plan.cond_vars c)
      in
      if missing <> [] then
        err "P004"
          (sprintf
             "filter references column(s) %s its input never binds; the row \
              lookup would raise at runtime"
             (vars_str missing))
  | Plan.Project (vs, child) ->
      let missing = List.filter (fun v -> not (List.mem v child.Plan.nvars)) vs in
      if missing <> [] then
        add
          (Diagnostic.warning ~context:(node_ctx n) "P005"
             (sprintf
                "projection keeps column(s) %s its input never binds; they \
                 are silently dropped"
                (vars_str missing)))
  | Plan.Anti_join (x, y) ->
      let unbound =
        List.filter (fun v -> not (List.mem v x.Plan.nvars)) y.Plan.nvars
      in
      if unbound <> [] then
        err "P015"
          (sprintf
             "anti-join's right input binds %s, which its left input never \
              binds; the row restriction would raise at runtime"
             (vars_str unbound))
  | Plan.Hash_join (x, y) ->
      if
        x.Plan.nvars <> [] && y.Plan.nvars <> []
        && not (List.exists (fun v -> List.mem v y.Plan.nvars) x.Plan.nvars)
      then
        add
          (Diagnostic.info ~context:(node_ctx n) "P007"
             "cartesian hash-join: the inputs share no variables")
  | _ -> ()

let delta_name n = n ^ "@delta"

(* Fixpoint typing: IDBs of strata up to and including the current one are
   in scope for rule bodies; the ["@delta"] views of the current stratum's
   IDBs are in scope only inside semi-naive delta variants (a full body
   reading a delta view would find no relation at runtime). *)
let check_fixpoint env0 diags dp =
  let add d = diags := d :: !diags in
  let err ?context code msg = add (Diagnostic.error ?context code msg) in
  let all_idbs =
    List.concat_map (fun stp -> stp.Plan.st_idbs) dp.Plan.dp_strata
  in
  if not (List.mem_assoc dp.Plan.dp_answer all_idbs) then
    err "P006"
      (sprintf "answer predicate %s is not an IDB of any stratum"
         dp.Plan.dp_answer);
  ignore
    (List.fold_left
       (fun env stp ->
         let env_full =
           List.fold_left (fun m (n, k) -> Smap.add n k m) env stp.Plan.st_idbs
         in
         let env_delta =
           List.fold_left
             (fun m (n, k) -> Smap.add (delta_name n) k m)
             env_full stp.Plan.st_idbs
         in
         List.iter
           (fun rp ->
             let h = rp.Plan.rp_head in
             let hctx = Format.asprintf "rule %s/%d" h.Ast.rel (List.length h.Ast.args) in
             (match List.assoc_opt h.Ast.rel stp.Plan.st_idbs with
             | None ->
                 err ~context:hctx "P006"
                   (sprintf "rule head %s is not an IDB of its stratum" h.Ast.rel)
             | Some k ->
                 if List.length h.Ast.args <> k then
                   err ~context:hctx "P006"
                     (sprintf
                        "rule head %s has arity %d but the stratum declares \
                         %s/%d"
                        h.Ast.rel (List.length h.Ast.args) h.Ast.rel k));
             check_node env_full diags rp.Plan.rp_full;
             List.iter (check_node env_delta diags) rp.Plan.rp_deltas)
           stp.Plan.st_rules;
         env_full)
       env0 dp.Plan.dp_strata)

let typecheck ?(extra = []) ~db t =
  let diags = ref [] in
  let env = db_env ~extra db in
  (match t with
  | Plan.Answer fp ->
      List.iter (fun d -> check_node env diags d.Plan.d_node) fp.Plan.fp_disjuncts
  | Plan.Fixpoint dp -> check_fixpoint env diags dp
  | Plan.Identity_plan name ->
      if not (Smap.mem name env) then
        diags :=
          Diagnostic.error "P001"
            (sprintf "identity plan over unknown relation %s" name)
          :: !diags
  | Plan.Empty_plan _ -> ());
  Diagnostic.sort !diags

(* ------------------------------------------------------------------ *)
(* Pass 2: rewrite-soundness certification                             *)
(* ------------------------------------------------------------------ *)

(* The compilers freshen quantified variables and reorder atoms, so exact
   structural replay is impossible; what every sound rewrite preserves is
   the multiset of (relation, arity) atoms, the number of built-in
   predicates, and the free-variable set (freshening renames only bound
   variables). *)
let rec formula_atoms f =
  match f with
  | Ast.Atom a -> [ (a.Ast.rel, List.length a.Ast.args) ]
  | Ast.True | Ast.False | Ast.Cmp _ | Ast.Dist _ -> []
  | Ast.And (f1, f2) | Ast.Or (f1, f2) -> formula_atoms f1 @ formula_atoms f2
  | Ast.Not f | Ast.Exists (_, f) | Ast.Forall (_, f) -> formula_atoms f

let rec formula_conds f =
  match f with
  | Ast.Cmp _ | Ast.Dist _ -> 1
  | Ast.True | Ast.False | Ast.Atom _ -> 0
  | Ast.And (f1, f2) | Ast.Or (f1, f2) -> formula_conds f1 + formula_conds f2
  | Ast.Not f | Ast.Exists (_, f) | Ast.Forall (_, f) -> formula_conds f

(* Frozen [Cached] subtrees still represent their part of the query: the
   census recurses through them (unlike the executable-shape census). *)
let rec node_atoms n =
  let own =
    match n.Plan.op with
    | Plan.Scan (a, _) | Plan.Index_join (_, a, _) ->
        [ (a.Ast.rel, List.length a.Ast.args) ]
    | _ -> []
  in
  own @ List.concat_map node_atoms (Plan.children n)

(* A disjunctive filter carries one built-in per comparison it ORs. *)
let rec cond_count = function
  | Plan.Cond_or (c1, c2) -> cond_count c1 + cond_count c2
  | Plan.Cond_cmp _ | Plan.Cond_dist _ -> 1

let rec node_conds n =
  let own =
    match n.Plan.op with
    | Plan.Filter (c, _) | Plan.Builtin c -> cond_count c
    | _ -> 0
  in
  own + List.fold_left (fun acc c -> acc + node_conds c) 0 (Plan.children n)

let atoms_str atoms =
  String.concat ", "
    (List.map (fun (r, k) -> sprintf "%s/%d" r k) atoms)

(* UCQ disjuncts of the source, mirroring the compiler's split; anything
   beyond the UCQ fragment lowers structurally as one disjunct. *)
let rec source_disjuncts f =
  if Fragment.is_cq f then [ f ]
  else
    match f with
    | Ast.Or (f1, f2) -> source_disjuncts f1 @ source_disjuncts f2
    | Ast.Exists (vs, g) ->
        List.map (fun d -> Ast.exists vs d) (source_disjuncts g)
    | Ast.False -> []
    | f -> [ f ]

let check_disjunct ~what diags src node =
  let add d = diags := d :: !diags in
  let err code msg = add (Diagnostic.error ~context:what code msg) in
  let sa = List.sort compare (formula_atoms src) in
  let pa = List.sort compare (node_atoms node) in
  if sa <> pa then
    err "P010"
      (sprintf "atom multiset not preserved: source has {%s}, plan has {%s}"
         (atoms_str sa) (atoms_str pa));
  let sc = formula_conds src in
  let pc = node_conds node in
  if sc <> pc then
    err "P011"
      (sprintf "built-in count not preserved: source has %d, plan has %d" sc pc);
  let missing =
    List.filter
      (fun v -> not (List.mem v node.Plan.nvars))
      (Ast.free_vars src)
  in
  if missing <> [] then
    err "P012"
      (sprintf "free variable(s) %s of the source are unbound in the plan"
         (vars_str missing))

(* Why the plan's source query [pq] is not [q]: their names, or — when
   the names agree — the differing head or body, each side printed. *)
let query_mismatch (pq : Ast.fo_query) (q : Ast.fo_query) =
  let prefix = "plan was compiled from a different query" in
  if pq.Ast.name <> q.Ast.name then
    sprintf "%s (%s, not %s)" prefix pq.Ast.name q.Ast.name
  else if pq.Ast.head <> q.Ast.head then
    sprintf "%s: both are named %s, but the plan's head is (%s), not (%s)"
      prefix q.Ast.name
      (String.concat ", " pq.Ast.head)
      (String.concat ", " q.Ast.head)
  else
    sprintf "%s: both are named %s, but the plan's body is %s, not %s" prefix
      q.Ast.name
      (Pretty.formula_to_string pq.Ast.body)
      (Pretty.formula_to_string q.Ast.body)

let certify_fo q fp =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let pq = fp.Plan.fp_query in
  if not (Ast.equal_formula q.Ast.body pq.Ast.body) || q.Ast.head <> pq.Ast.head
  then add (Diagnostic.error "P014" (query_mismatch pq q))
  else begin
    let srcs =
      if Fragment.leq fp.Plan.fp_fragment Fragment.Ucq then
        source_disjuncts q.Ast.body
      else [ q.Ast.body ]
    in
    let plans = fp.Plan.fp_disjuncts in
    if List.length srcs <> List.length plans then
      add
        (Diagnostic.error "P014"
           (sprintf "source has %d disjunct(s) but the plan has %d"
              (List.length srcs) (List.length plans)))
    else
      List.iteri
        (fun i (src, d) ->
          check_disjunct ~what:(sprintf "disjunct %d" (i + 1)) diags src
            d.Plan.d_node)
        (List.combine srcs plans)
  end;
  Diagnostic.sort !diags

(* Complement-stratification: inside the rules of stratum [s], a negated
   subtree (a complement's input or an anti-join's right input) may only
   read EDB relations or IDBs of strictly lower strata — the
   stratified-negation contract the fixpoint driver assumes. *)
let rec complement_reads n =
  match n.Plan.op with
  | Plan.Complement c ->
      List.map fst (node_atoms c) @ complement_reads c
  | Plan.Anti_join (l, r) ->
      List.map fst (node_atoms r) @ complement_reads l @ complement_reads r
  | _ -> List.concat_map complement_reads (Plan.children n)

let base_name r =
  match String.index_opt r '@' with
  | Some i when String.length r - i = String.length "@delta" -> String.sub r 0 i
  | _ -> r

let certify_dl p dp =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let err ?context code msg = add (Diagnostic.error ?context code msg) in
  (match Datalog.refined_strata p with
  | Error msg -> err "P014" (sprintf "program is not stratifiable: %s" msg)
  | Ok strata ->
      let nstrata =
        1 + List.fold_left (fun acc (_, s) -> max acc s) 0 strata
      in
      if List.length dp.Plan.dp_strata <> nstrata then
        err "P014"
          (sprintf
             "SCC-refined stratification has %d stratum/strata but the plan \
              has %d"
             nstrata
             (List.length dp.Plan.dp_strata));
      let stratum_of n = Option.value ~default:0 (List.assoc_opt n strata) in
      (* Every program rule must be planned in its head's stratum. *)
      let planned =
        List.concat_map
          (fun stp -> List.map (fun rp -> rp.Plan.rp_head) stp.Plan.st_rules)
          dp.Plan.dp_strata
      in
      List.iter
        (fun r ->
          if not (List.exists (fun h -> h = r.Datalog.head) planned) then
            err "P014"
              (sprintf "rule for %s is missing from the plan" r.Datalog.head.Ast.rel))
        p.Datalog.rules;
      List.iteri
        (fun s stp ->
          let same_stratum r = List.mem_assoc r stp.Plan.st_idbs in
          List.iter
            (fun rp ->
              let hctx =
                Format.asprintf "stratum %d, rule %s" s rp.Plan.rp_head.Ast.rel
              in
              (* A recursive rule (reading a same-stratum IDB) without
                 semi-naive delta variants would silently stop deriving
                 after the first round. *)
              let recursive =
                List.exists
                  (fun (r, _) -> r <> "" && same_stratum r)
                  (node_atoms rp.Plan.rp_full)
              in
              if recursive && rp.Plan.rp_deltas = [] then
                err ~context:hctx "P014"
                  "recursive rule carries no semi-naive delta variants";
              List.iter
                (fun node ->
                  List.iter
                    (fun r ->
                      let b = base_name r in
                      if stratum_of b >= s && List.mem_assoc b strata then
                        err ~context:hctx "P013"
                          (sprintf
                             "negation (complement or anti-join) reads IDB \
                              %s of stratum %d from stratum %d; stratified \
                              negation requires a strictly lower stratum"
                             b (stratum_of b) s))
                    (complement_reads node))
                (rp.Plan.rp_full :: rp.Plan.rp_deltas))
            stp.Plan.st_rules)
        dp.Plan.dp_strata);
  Diagnostic.sort !diags

let certify_diags q t =
  match (q, t) with
  | Query.Fo fq, Plan.Answer fp -> certify_fo fq fp
  | Query.Dl p, Plan.Fixpoint dp -> certify_dl p dp
  | Query.Identity _, Plan.Identity_plan _ -> []
  | Query.Empty_query, Plan.Empty_plan _ -> []
  | _ ->
      [ Diagnostic.error "P014" "plan kind does not match the query kind" ]

let certify q t =
  match Advisor.certify_plan q t with
  | Advisor.Violation _ as v -> v
  | Advisor.Certified shape_msg -> (
      let ds = certify_diags q t in
      match List.filter Diagnostic.is_error ds with
      | d :: _ ->
          Advisor.Violation
            (sprintf "%s; rewrite-soundness failed [%s]: %s" shape_msg
               d.Diagnostic.code d.Diagnostic.message)
      | [] ->
          let detail =
            match t with
            | Plan.Fixpoint _ ->
                "rule coverage, semi-naive deltas and \
                 complement-stratification preserved"
            | Plan.Answer _ ->
                "variable set, atom multiset and built-ins preserved"
            | Plan.Identity_plan _ | Plan.Empty_plan _ -> "trivially sound"
          in
          Advisor.Certified (shape_msg ^ "; rewrite-sound: " ^ detail))

(* ------------------------------------------------------------------ *)
(* Pass 3: budget & fault coverage lint                                *)
(* ------------------------------------------------------------------ *)

let registry_sites () = Robust.Fault.sites

let guard_sites gs =
  List.filter_map
    (function Plan.Fault_site s -> Some s | Plan.Budget_tick -> None)
    gs

let has_tick gs = List.mem Plan.Budget_tick gs

let plan_nodes t =
  let rec collect acc n = List.fold_left collect (n :: acc) (Plan.children n) in
  match t with
  | Plan.Answer fp ->
      List.fold_left (fun acc d -> collect acc d.Plan.d_node) [] fp.Plan.fp_disjuncts
  | Plan.Fixpoint dp ->
      List.fold_left
        (fun acc stp ->
          List.fold_left
            (fun acc rp ->
              List.fold_left collect (collect acc rp.Plan.rp_full)
                rp.Plan.rp_deltas)
            acc stp.Plan.st_rules)
        [] dp.Plan.dp_strata
  | Plan.Identity_plan _ | Plan.Empty_plan _ -> []

let budget_lint t =
  let diags = ref [] in
  let err ?context code msg =
    diags := Diagnostic.error ?context code msg :: !diags
  in
  let check_sites ~context gs =
    List.iter
      (fun s ->
        if not (List.mem s (registry_sites ())) then
          err ~context "P021"
            (sprintf "declared fault site %s is not in the PKG_FAULT registry" s))
      (guard_sites gs)
  in
  let seen_kind = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let label = Format.asprintf "%a" Plan.node_label n in
      let kind = match String.index_opt label ' ' with
        | Some i -> String.sub label 0 i
        | None -> label
      in
      if not (Hashtbl.mem seen_kind kind) then begin
        Hashtbl.add seen_kind kind ();
        let gs = Plan.op_guards n.Plan.op in
        let context = node_ctx n in
        if not (has_tick gs) then
          err ~context "P020"
            (sprintf "node kind %S declares no budget tick; an operator \
                      outside the cooperative budget cannot be interrupted"
               kind);
        (match n.Plan.op with
        | Plan.Index_join _ ->
            if guard_sites gs = [] then
              err ~context "P020"
                "join loop declares no fault site; robustness tests cannot \
                 reach it"
        | _ -> ());
        check_sites ~context gs
      end)
    (plan_nodes t);
  (match t with
  | Plan.Fixpoint _ ->
      let gs = Plan.fixpoint_guards in
      let context = "fixpoint round" in
      if not (has_tick gs) then
        err ~context "P020" "fixpoint round declares no budget tick";
      if guard_sites gs = [] then
        err ~context "P020" "fixpoint round declares no fault site";
      check_sites ~context gs
  | _ -> ());
  Diagnostic.sort !diags

let fault_coverage plans =
  let diags = ref [] in
  let err code msg = diags := Diagnostic.error code msg :: !diags in
  let covered =
    List.concat_map
      (fun t ->
        let node_sites =
          List.concat_map (fun n -> guard_sites (Plan.op_guards n.Plan.op)) (plan_nodes t)
        in
        match t with
        | Plan.Fixpoint _ -> guard_sites Plan.fixpoint_guards @ node_sites
        | _ -> node_sites)
      plans
  in
  List.iter
    (fun site ->
      if not (List.mem site (registry_sites ())) then
        err "P023"
          (sprintf
             "fault-site registry drift: plan site %s is not in \
              Robust.Fault.sites"
             site);
      if not (List.mem site covered) then
        err "P022"
          (sprintf
             "plan fault site %s is not reachable from any plan in the \
              corpus (%d plan(s))"
             site (List.length plans)))
    Plan.plan_fault_sites;
  Diagnostic.sort !diags

(* ------------------------------------------------------------------ *)
(* Pass 4: effect analysis                                             *)
(* ------------------------------------------------------------------ *)

let effects_diags t =
  let s = Effects.summarize t in
  let line =
    String.concat ", "
      (List.map
         (fun (a : Effects.access) ->
           sprintf "%s %s%s"
             (Effects.resource_to_string a.Effects.resource)
             (Effects.level_to_string a.Effects.level)
             (if a.Effects.synchronized then "" else " UNSYNCHRONIZED"))
         s.Effects.accesses)
  in
  let summary =
    Diagnostic.info "P030"
      (sprintf "effects: %s — %s"
         (Effects.verdict_to_string s.Effects.verdict)
         (if line = "" then "no shared-state accesses" else line))
  in
  match s.Effects.verdict with
  | Effects.Concurrency_safe -> [ summary ]
  | Effects.Requires_exclusive rs ->
      [
        Diagnostic.error "P031"
          (sprintf
             "unsynchronized shared write(s) on %s: the plan requires \
              exclusive access and must not serve concurrent evaluation"
             (String.concat ", " rs));
        summary;
      ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let check ?extra ?query ~db t =
  let ds =
    typecheck ?extra ~db t
    @ (match query with None -> [] | Some q -> certify_diags q t)
    @ budget_lint t @ effects_diags t
  in
  Diagnostic.sort ds

let ok ds = not (Diagnostic.has_errors ds)
