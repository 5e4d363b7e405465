open Ast
module Value = Relational.Value
module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema
module Stats = Relational.Stats

let c_compiles = Observe.counter "plan.compiles"
let c_execs = Observe.counter "plan.execs"
let c_scans = Observe.counter "plan.scans"
let c_probes = Observe.counter "plan.index_probes"
let c_selects = Observe.counter "plan.const_selects"
let c_full_scans = Observe.counter "plan.full_scans"
let c_hash_joins = Observe.counter "plan.hash_joins"
let c_rows = Observe.counter "plan.rows"
let c_rounds = Observe.counter "plan.fixpoint_rounds"
let c_cached_hits = Observe.counter "plan.cached_hits"
let c_cache_hit = Observe.counter "plan.cache_hit"
let c_cache_miss = Observe.counter "plan.cache_miss"
let c_delta_prepares = Observe.counter "plan.delta_prepares"
let c_delta_evals = Observe.counter "plan.delta_evals"
let t_run = Observe.timer "plan.run"

module Sset = Set.Make (String)

module Vset = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

(* ------------------------------------------------------------------ *)
(* The IR                                                              *)
(* ------------------------------------------------------------------ *)

type cond =
  | Cond_cmp of cmp * term * term
  | Cond_dist of string * term * term * float
  | Cond_or of cond * cond

type op =
  | Tt
  | Ff
  | Scan of atom * string list
      (** match the atom pattern against its relation, emitting the listed
          variables: all of the atom's, unless the covering rewrite
          narrowed them to the ones consumed above *)
  | Index_join of node * atom * string list
      (** index nested-loop join: each child row probes the atom
          relation's cached by-column index, emitting the listed
          variables: all of the child's and the atom's, unless the
          covering rewrite narrowed them to the ones consumed above *)
  | Hash_join of node * node
  | Anti_join of node * node
      (** the left rows whose restriction to the right's variables is
          absent from the right: guarded negation *)
  | Filter of cond * node
  | Builtin of cond  (** active-domain built-in leaf *)
  | Extend of string list * node  (** pad missing variables over adom *)
  | Project of string list * node  (** keep the listed variables *)
  | Union of node * node
  | Complement of node
  | Cached of Bindings.t * node
      (** base evaluation frozen by the delta rewrite; the node is kept for
          display only *)

and node = {
  id : int;
  op : op;
  nvars : string list;  (** variables of the result, sorted *)
  est : float;  (** estimated rows; [nan] = unknown *)
  dst : (string * float) list;  (** per-variable distinct-count estimates *)
}

type disjunct = {
  d_node : node;
  d_consts : Value.t list;
      (** the query's constants: the disjunct's active domain is the
          database's plus these — [adom(Q, D)] of the paper, the same for
          every disjunct *)
}

type fo_plan = {
  fp_query : Ast.fo_query;
  fp_schema : Schema.t;
  fp_head : term list;
  fp_fragment : Fragment.t;
  fp_disjuncts : disjunct list;
}

type rule_plan = {
  rp_head : atom;
  rp_full : node;
  rp_deltas : node list;
      (** semi-naive variants: one per same-stratum IDB body occurrence,
          that occurrence reading the ["@delta"] relation *)
}

type stratum_plan = {
  st_idbs : (string * int) list;  (** IDB name, arity *)
  st_rules : rule_plan list;
}

type dl_plan = {
  dp_program : Datalog.program;
  dp_strata : stratum_plan list;
  dp_consts : Value.t list;
  dp_answer : string;
}

type t =
  | Answer of fo_plan
  | Fixpoint of dl_plan
  | Identity_plan of string
  | Empty_plan of Schema.t

(* ------------------------------------------------------------------ *)
(* Estimation                                                          *)
(* ------------------------------------------------------------------ *)

type cx = {
  cdb : Database.t;
  cstats : (string, Stats.relation_stats option) Hashtbl.t;
  cadom : float Lazy.t;
      (** estimated active-domain size, forced only by the estimates of
          adom-ranging nodes: a safe-range plan never builds the domain *)
}

let make_cx db =
  {
    cdb = db;
    cstats = Hashtbl.create 16;
    cadom = lazy (float_of_int (List.length (Database.active_domain db)));
  }

let stats_of cx name =
  match Hashtbl.find_opt cx.cstats name with
  | Some s -> s
  | None ->
      let s = Option.map Stats.of_relation (Database.find_opt cx.cdb name) in
      Hashtbl.add cx.cstats name s;
      s

let atom_var_list a =
  List.concat_map (function Var v -> [ v ] | Const _ -> []) a.args

let atom_vars_sorted a = List.sort_uniq String.compare (atom_var_list a)
let atom_vars_set a = Sset.of_list (atom_var_list a)

(* The variables an index join of [n] against [a] binds, sorted. *)
let join_vars n a = List.sort_uniq String.compare (n.nvars @ atom_vars_sorted a)

let rec cond_terms = function
  | Cond_cmp (_, t1, t2) -> [ t1; t2 ]
  | Cond_dist (_, t1, t2, _) -> [ t1; t2 ]
  | Cond_or (c1, c2) -> cond_terms c1 @ cond_terms c2

let cond_vars c =
  List.concat_map term_vars (cond_terms c) |> List.sort_uniq String.compare

let cond_vars_set c = Sset.of_list (cond_vars c)

(* Textbook uniformity estimate of a scan: relation cardinality scaled by
   1/distinct for every constant position and every repeated-variable
   position.  [nan] when the relation is unknown at planning time (e.g. an
   IDB predicate). *)
let scan_est cx a =
  let vs = atom_vars_sorted a in
  match stats_of cx a.rel with
  | None -> (nan, List.map (fun v -> (v, nan)) vs)
  | Some st ->
      let ncols = Array.length st.Stats.columns in
      let est = ref (float_of_int st.Stats.rows) in
      let seen = Hashtbl.create 8 in
      List.iteri
        (fun i arg ->
          if i < ncols then
            match arg with
            | Const _ -> est := !est *. Stats.eq_selectivity st i
            | Var v ->
                if Hashtbl.mem seen v then
                  est := !est *. Stats.eq_selectivity st i
                else Hashtbl.add seen v i)
        a.args;
      let dst =
        List.map
          (fun v ->
            match Hashtbl.find_opt seen v with
            | Some i when i < ncols ->
                let d = float_of_int st.Stats.columns.(i).Stats.distinct in
                (v, Float.min d (Float.max !est 1.))
            | _ -> (v, nan))
          vs
      in
      (!est, dst)

let dst_find dst v = Option.value ~default:nan (List.assoc_opt v dst)

(* Equi-join estimate over the shared variables:
   |A| · |B| / ∏ max(distinct_A(v), distinct_B(v)). *)
let join_est (va, ea, da) (vb, eb, db_) =
  let shared = List.filter (fun v -> List.mem v vb) va in
  let denom =
    List.fold_left
      (fun acc v ->
        let d = Float.max (dst_find da v) (dst_find db_ v) in
        acc *. Float.max 1. d)
      1. shared
  in
  let est = ea *. eb /. denom in
  let vars = List.sort_uniq String.compare (va @ vb) in
  let dst =
    List.map
      (fun v ->
        let x = dst_find da v and y = dst_find db_ v in
        let d =
          if Float.is_nan x then y else if Float.is_nan y then x else Float.min x y
        in
        (v, d))
      vars
  in
  (vars, est, dst)

let next_id = Atomic.make 0
let mk_node op nvars est dst = { id = Atomic.fetch_and_add next_id 1; op; nvars; est; dst }

let mk cx op =
  match op with
  | Tt -> mk_node op [] 1. []
  | Ff -> mk_node op [] 0. []
  | Scan (a, keep) ->
      let est, dst = scan_est cx a in
      let nv = List.filter (fun v -> List.mem v keep) (atom_vars_sorted a) in
      mk_node op nv est (List.filter (fun (v, _) -> List.mem v nv) dst)
  | Index_join (n, a, keep) ->
      let s_est, s_dst = scan_est cx a in
      let vars, est, dst =
        join_est (n.nvars, n.est, n.dst) (atom_vars_sorted a, s_est, s_dst)
      in
      let nv = List.filter (fun v -> List.mem v keep) vars in
      mk_node op nv est (List.filter (fun (v, _) -> List.mem v nv) dst)
  | Hash_join (x, y) ->
      let vars, est, dst = join_est (x.nvars, x.est, x.dst) (y.nvars, y.est, y.dst) in
      mk_node op vars est dst
  | Anti_join (x, _) -> mk_node op x.nvars (x.est /. 2.) x.dst
  | Filter (_, n) -> mk_node op n.nvars (n.est /. 3.) n.dst
  | Builtin c ->
      let cadom = Lazy.force cx.cadom in
      let vs = cond_vars c in
      let k = float_of_int (List.length vs) in
      let base = cadom ** k in
      let est =
        match c with
        | Cond_cmp (Eq, _, _) -> base /. Float.max 1. cadom
        | _ -> base /. 3.
      in
      mk_node op vs est (List.map (fun v -> (v, cadom)) vs)
  | Extend (vs, n) ->
      let missing = List.filter (fun v -> not (List.mem v n.nvars)) vs in
      let nv = List.sort_uniq String.compare (vs @ n.nvars) in
      if missing = [] then mk_node op nv n.est n.dst
      else
        let cadom = Lazy.force cx.cadom in
        let est = n.est *. (cadom ** float_of_int (List.length missing)) in
        mk_node op nv est (n.dst @ List.map (fun v -> (v, cadom)) missing)
  | Project (vs, n) ->
      let nv = List.filter (fun v -> List.mem v vs) n.nvars in
      mk_node op nv n.est (List.filter (fun (v, _) -> List.mem v vs) n.dst)
  | Union (x, y) ->
      let nv = List.sort_uniq String.compare (x.nvars @ y.nvars) in
      let pad m =
        let k = List.length nv - List.length m.nvars in
        if k = 0 then 1. else Lazy.force cx.cadom ** float_of_int k
      in
      let dst =
        List.map
          (fun v ->
            let side m =
              if List.mem v m.nvars then dst_find m.dst v else Lazy.force cx.cadom
            in
            (v, Float.max (side x) (side y)))
          nv
      in
      mk_node op nv ((x.est *. pad x) +. (y.est *. pad y)) dst
  | Complement n ->
      let cadom = Lazy.force cx.cadom in
      let full = cadom ** float_of_int (List.length n.nvars) in
      mk_node op n.nvars (Float.max 0. (full -. n.est)) (List.map (fun v -> (v, cadom)) n.nvars)
  | Cached (b, n) -> mk_node op n.nvars (float_of_int (Bindings.cardinal b)) n.dst

let children n =
  match n.op with
  | Tt | Ff | Scan _ | Builtin _ -> []
  | Index_join (c, _, _)
  | Filter (_, c)
  | Extend (_, c)
  | Project (_, c)
  | Complement c
  | Cached (_, c) ->
      [ c ]
  | Hash_join (a, b) | Anti_join (a, b) | Union (a, b) -> [ a; b ]

(* ------------------------------------------------------------------ *)
(* Static metadata: guards, variable recomputation, raw construction   *)
(* ------------------------------------------------------------------ *)

type guard = Budget_tick | Fault_site of string

(* The interpreter's robustness obligations per node kind, declared next
   to the IR so the static budget lint can check them without running
   anything.  [run_node] ticks the budget before every node, so every kind
   carries [Budget_tick]; the index join's probe loop is the node-level
   fault site.  A new operator added to [op] is a compile
   error here until its guards are declared, which is exactly when the
   lint should start covering it. *)
let op_guards = function
  | Tt | Ff | Scan _ | Builtin _ | Filter _ | Extend _ | Project _
  | Hash_join _ | Anti_join _ | Union _ | Complement _ | Cached _ ->
      [ Budget_tick ]
  | Index_join _ -> [ Budget_tick; Fault_site "plan.join" ]

(* Per-round obligations of the semi-naive fixpoint driver. *)
let fixpoint_guards = [ Budget_tick; Fault_site "plan.round" ]

(* Every fault site the plan interpreter can reach. *)
let plan_fault_sites = [ "plan.join"; "plan.round" ]

(* The variable set [mk] would give a node of this shape — the metadata a
   well-formed node must carry.  [Cached] keeps the display subtree's
   variables; whether the frozen bindings agree is a separate check. *)
let op_vars = function
  | Tt | Ff -> []
  | Scan (a, keep) -> List.filter (fun v -> List.mem v keep) (atom_vars_sorted a)
  | Index_join (n, a, keep) -> List.filter (fun v -> List.mem v keep) (join_vars n a)
  | Hash_join (x, y) | Union (x, y) ->
      List.sort_uniq String.compare (x.nvars @ y.nvars)
  | Filter (_, n) | Anti_join (n, _) | Complement n | Cached (_, n) -> n.nvars
  | Builtin c -> cond_vars c
  | Extend (vs, n) -> List.sort_uniq String.compare (vs @ n.nvars)
  | Project (vs, n) -> List.filter (fun v -> List.mem v vs) n.nvars

(* A node with declared (not recomputed) variables and no estimates, for
   building ill-formed fixtures and hand-written raw plans. *)
let raw_node op nvars = mk_node op nvars nan []

(* Whether any atom leaf or join under the node (not under [Cached]) reads
   the named relation. *)
let rec mentions_rel rel n =
  match n.op with
  | Scan (a, _) -> a.rel = rel
  | Index_join (c, a, _) -> a.rel = rel || mentions_rel rel c
  | Tt | Ff | Builtin _ | Cached _ -> false
  | Filter (_, c) | Extend (_, c) | Project (_, c) | Complement c ->
      mentions_rel rel c
  | Hash_join (a, b) | Anti_join (a, b) | Union (a, b) ->
      mentions_rel rel a || mentions_rel rel b

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

(* The environment is the base database plus an overlay of in-flight
   relations keyed by name (fixpoint IDB state and ["@delta"] relations, or
   the candidate-package relation of a delta evaluation).  The overlay is
   consulted first, so a delta relation shadows its base (empty) version. *)
type env = {
  base : Database.t;
  overlay : (string * Relation.t) list;
  deltas : (string * delta_rows) list;
      (** the ["@delta"] views of a running fixpoint round *)
}

(* The rows a semi-naive round added to an IDB, distinct, read by the next
   round's ["@delta"] scans as they are.  Their relation is built only
   when a plan probes the delta (or reads the whole IDB, which grows by
   it). *)
and delta_rows = { dr_rows : Relational.Tuple.t array; dr_rel : Relation.t Lazy.t }

let base_env db = { base = db; overlay = []; deltas = [] }

let find_rel env name =
  match List.assoc_opt name env.overlay with
  | Some r -> Some r
  | None -> (
      match List.assoc_opt name env.deltas with
      | Some d -> Some (Lazy.force d.dr_rel)
      | None -> Database.find_opt env.base name)

type st = {
  env : env;
  adom : Value.t list Lazy.t;
      (* forced only by adom-ranging operators (extend, union padding,
         complement, trailing built-ins): fully-bound plans never build
         the active domain *)
  dist : Dist.env;
  record : (int, int) Hashtbl.t option;
      (** node id -> actual result rows, for explain *)
}

let record_rows st n k =
  match st.record with Some rc -> Hashtbl.replace rc n.id k | None -> ()

let lookup_relation env a =
  match find_rel env a.rel with
  | Some r -> r
  | None -> failwith ("Plan: unknown relation " ^ a.rel)

let check_arity_n a k =
  let arity = List.length a.args in
  if k <> arity then
    failwith
      (Printf.sprintf "Plan: atom %s has arity %d but relation has arity %d"
         a.rel arity k)

let check_arity a r = check_arity_n a (Relation.arity r)

(* The [n] rows of a list accumulated newest-first, oldest first: the
   interpreter's operators collect rows in derivation order this way. *)
let array_of_rev n l =
  match l with
  | [] -> [||]
  | r :: _ ->
      let a = Array.make n r in
      List.iteri (fun i r -> a.(n - 1 - i) <- r) l;
      a

(* A condition as a predicate over a row, its variables resolved to
   columns once by [col_of] rather than looked up by name per row.  A
   variable [col_of] cannot place raises [Not_found] when it is read. *)
let rec cond_holds st col_of c =
  let term = function
    | Var v -> (
        match col_of v with
        | Some i -> fun (row : Relational.Tuple.t) -> row.(i)
        | None -> fun _ -> raise Not_found)
    | Const x -> fun _ -> x
  in
  match c with
  | Cond_cmp (op, t1, t2) ->
      let holds2 = eval_cmp op and f1 = term t1 and f2 = term t2 in
      fun row -> holds2 (f1 row) (f2 row)
  | Cond_dist (name, t1, t2, d) ->
      let fn =
        match Dist.find_opt st.dist name with
        | Some fn -> fn
        | None -> failwith ("Plan: unknown distance function " ^ name)
      in
      let f1 = term t1 and f2 = term t2 in
      fun row -> fn (f1 row) (f2 row) <= d
  | Cond_or (c1, c2) ->
      let h1 = cond_holds st col_of c1 and h2 = cond_holds st col_of c2 in
      fun row -> h1 row || h2 row

(* The column of a variable in a sorted variable array. *)
let column vars v =
  let rec go i =
    if i = Array.length vars then None else if vars.(i) = v then Some i else go (i + 1)
  in
  go 0

(* Satisfying assignments of an atom, restricted to [out_vars].  The
   per-position spec is built once: a constant, the first occurrence of a
   variable, or a repeat that must equal an earlier column.  Rows come through the relation's
   maintained by-column index when a position holds a constant, and from
   one pass over the tuple set otherwise; a fixpoint's ["@delta"] view is
   read from its row array.  [keep], when given, is a filter
   condition fused into the scan and tested on each matched stored tuple
   before the row is materialized; the result pairs the kept bindings with
   the number of rows the atom pattern matched (what the leaf alone would
   emit).

   Distinct stored tuples give distinct rows unless the scan drops a
   variable the atom binds, so only such a narrowed scan deduplicates.  A
   scan whose atom is exactly its variables in sorted order emits the
   stored tuples themselves, uncopied. *)
let exec_scan st ?keep a out_vars =
  Observe.bump c_scans;
  let src =
    match List.assoc_opt a.rel st.env.deltas with
    | Some d ->
        if Array.length d.dr_rows > 0 then
          check_arity_n a (Array.length d.dr_rows.(0));
        `Rows d.dr_rows
    | None ->
        let r = lookup_relation st.env a in
        check_arity a r;
        `Rel r
  in
  let first = Hashtbl.create 8 in
  let spec =
    Array.of_list
      (List.mapi
         (fun i arg ->
           match arg with
           | Const c -> `Const c
           | Var v -> (
               match Hashtbl.find_opt first v with
               | Some j -> `Same j
               | None ->
                   Hashtbl.add first v i;
                   `Bind))
         a.args)
  in
  let col_of v =
    match Hashtbl.find_opt first v with
    | Some i -> i
    | None ->
        failwith
          (Printf.sprintf "Plan: scan keeps variable %s that atom %s never binds" v
             a.rel)
  in
  let out_vars = List.sort_uniq String.compare out_vars in
  let out = Array.of_list (List.map col_of out_vars) in
  let keep = Option.map (cond_holds st (Hashtbl.find_opt first)) keep in
  let whole =
    Array.length out = Array.length spec
    && Array.for_all Fun.id (Array.mapi (fun i c -> i = c) out)
  in
  let seen =
    if Array.length out < Hashtbl.length first then
      Some (Bindings.Rowset.create 64)
    else None
  in
  let matched = ref 0 and kept = ref 0 and n = ref 0 and rows = ref [] in
  let visit tup =
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length spec do
      (match spec.(!i) with
      | `Const c -> ok := Value.equal c tup.(!i)
      | `Same j -> ok := Value.equal tup.(j) tup.(!i)
      | `Bind -> ());
      incr i
    done;
    if !ok then begin
      incr matched;
      match keep with
      | Some p when not (p tup) -> ()
      | _ -> (
          incr kept;
          let row = if whole then tup else Array.map (fun c -> tup.(c)) out in
          match seen with
          | Some s when not (Bindings.Rowset.add s row) -> ()
          | _ ->
              incr n;
              rows := row :: !rows)
    end
  in
  let rec const_col i = function
    | [] -> None
    | Const c :: _ -> Some (i, c)
    | Var _ :: rest -> const_col (i + 1) rest
  in
  let rows =
    match (const_col 0 a.args, src) with
    | Some (col, c), `Rel r ->
        Observe.bump c_selects;
        List.iter visit (Relation.select_eq r col c);
        array_of_rev !n !rows
    | None, _ when whole && Option.is_none keep ->
        Observe.bump c_full_scans;
        let all = match src with `Rel r -> Relation.to_array r | `Rows a -> a in
        matched := Array.length all;
        kept := !matched;
        all
    | _ ->
        Observe.bump c_full_scans;
        (match src with
        | `Rel r -> Relation.iter visit r
        | `Rows a -> Array.iter visit a);
        array_of_rev !n !rows
  in
  Observe.add c_rows !kept;
  (Bindings.of_distinct out_vars rows, !matched)

(* Index nested-loop join: join the child binding set against the atom's
   relation, probing the relation's cached by-column index on a shared
   (already bound) variable, or an index selection on a constant column,
   falling back to a full scan.  The index is cached on the relation and
   maintained across writes by [Relation.add]/[remove], so a stored
   relation's index is built once, not once per execution.  The rows carry
   the [keep] variables only: a join narrowed by the covering rewrite
   never materializes the columns it drops.  Returns the output variables,
   the number of rows and the rows newest first; with [~dedup:false] a
   narrowed join skips deduplicating, so its rows may repeat. *)
let exec_probe ~dedup st b a keep =
  Robust.Fault.hit "plan.join";
  let r = lookup_relation st.env a in
  check_arity a r;
  let args = Array.of_list a.args in
  let arity = Array.length args in
  let b_vars = Bindings.vars b in
  let pos_in arr v =
    let rec go i =
      if i = Array.length arr then None else if arr.(i) = v then Some i else go (i + 1)
    in
    go 0
  in
  let fresh =
    let seen = Hashtbl.create 8 in
    Array.to_list args
    |> List.filter_map (function
         | Const _ -> None
         | Var v ->
             if pos_in b_vars v <> None || Hashtbl.mem seen v then None
             else begin
               Hashtbl.add seen v ();
               Some v
             end)
    |> Array.of_list
  in
  let spec =
    Array.map
      (fun arg ->
        match arg with
        | Const c -> `Const c
        | Var v -> (
            match pos_in b_vars v with
            | Some i -> `Bound i
            | None -> `Fresh (Option.get (pos_in fresh v))))
      args
  in
  let nfresh = Array.length fresh in
  (* The output row in sorted variable order, built in one pass: column
     [i] reads the child row's column [j] when [layout.(i) = j >= 0] and
     fresh slot [k] when [layout.(i) = -1 - k]. *)
  let out_vars = List.sort_uniq String.compare keep in
  let layout =
    Array.of_list
      (List.map
         (fun v ->
           match (pos_in b_vars v, pos_in fresh v) with
           | Some j, _ -> j
           | None, Some k -> -1 - k
           | None, None ->
               failwith
                 (Printf.sprintf
                    "Plan: index-join keeps variable %s that neither its input \
                     nor atom %s binds"
                    v a.rel))
         out_vars)
  in
  let width = Array.length layout in
  (* When the output row is the child row itself, each child row is
     emitted at most once (a semi-join when the atom adds variables that
     are dropped).  Otherwise a child row and a matching tuple determine
     the output, so the rows are distinct unless [keep] drops a variable;
     only such a narrowed join deduplicates. *)
  let passthrough =
    width = Array.length b_vars && Array.for_all Fun.id (Array.mapi ( = ) layout)
  in
  let seen =
    if dedup && (not passthrough) && width < Array.length b_vars + nfresh then
      Some (Bindings.Rowset.create 64)
    else None
  in
  let n = ref 0 and out = ref [] in
  let emit o =
    match seen with
    | Some s when not (Bindings.Rowset.add s o) -> ()
    | _ ->
        incr n;
        out := o :: !out
  in
  let slots = Array.make (max nfresh 1) (Value.Int 0) in
  let filled = Array.make (max nfresh 1) false in
  let matches row tup =
    Array.fill filled 0 nfresh false;
    let ok = ref true and i = ref 0 in
    while !ok && !i < arity do
      (match spec.(!i) with
      | `Const c -> ok := Value.equal c tup.(!i)
      | `Bound j -> ok := Value.equal row.(j) tup.(!i)
      | `Fresh k ->
          if filled.(k) then ok := Value.equal slots.(k) tup.(!i)
          else begin
            slots.(k) <- tup.(!i);
            filled.(k) <- true
          end);
      incr i
    done;
    !ok
  in
  let join_row row tups =
    Robust.Budget.check ();
    if passthrough then begin
      if List.exists (matches row) tups then emit row
    end
    else
      List.iter
        (fun tup ->
          if matches row tup then begin
            let o = Array.make width (Value.Int 0) in
            for i = 0 to width - 1 do
              let s = layout.(i) in
              o.(i) <- (if s >= 0 then row.(s) else slots.(-1 - s))
            done;
            emit o
          end)
        tups
  in
  let shared_col =
    let rec go i =
      if i = arity then None
      else match spec.(i) with `Bound j -> Some (i, j) | _ -> go (i + 1)
    in
    go 0
  in
  let const_col =
    let rec go i =
      if i = arity then None
      else match spec.(i) with `Const c -> Some (i, c) | _ -> go (i + 1)
    in
    go 0
  in
  (match shared_col with
  | Some (col, j) ->
      let ix = Relation.index_on r col in
      Bindings.iter
        (fun row ->
          Observe.bump c_probes;
          join_row row (Relation.probe ix row.(j)))
        b
  | None -> (
      match const_col with
      | Some (col, c) ->
          Observe.bump c_selects;
          let tups = Relation.select_eq r col c in
          Bindings.iter (fun row -> join_row row tups) b
      | None ->
          Observe.bump c_full_scans;
          let tups = Relation.to_list r in
          Bindings.iter (fun row -> join_row row tups) b));
  Observe.add c_rows !n;
  (out_vars, !n, !out)

(* A built-in leaf: the assignments of the condition's variables over the
   active domain that satisfy it.  A variable-free condition is [tt] or
   [ff] and never builds the domain. *)
let exec_builtin st c =
  match cond_vars c with
  | [] -> if cond_holds st (fun _ -> None) c [||] then Bindings.tt else Bindings.ff
  | vs ->
      let adom = Lazy.force st.adom in
      let vars = Array.of_list vs in
      let holds = cond_holds st (column vars) c in
      let row = Array.make (Array.length vars) (Value.Int 0) in
      let n = ref 0 and out = ref [] in
      let rec fill i =
        if i = Array.length vars then begin
          if holds row then begin
            incr n;
            out := Array.copy row :: !out
          end
        end
        else
          List.iter
            (fun a ->
              row.(i) <- a;
              fill (i + 1))
            adom
      in
      fill 0;
      (* a duplicate-free domain enumerates distinct rows *)
      Bindings.of_distinct vs (array_of_rev !n !out)

(* A leaf scan, with [keep] a filter fused into it.  The leaf records the
   rows its atom matched, so [explain] still shows what the scan read; the
   fused filter's node records what passed. *)
let run_scan st ?keep n a out_vars =
  let b, matched = exec_scan st ?keep a out_vars in
  record_rows st n matched;
  b

let rec run_node st n =
  Robust.Budget.check ();
  let b =
    match n.op with
    | Tt -> Bindings.tt
    | Ff -> Bindings.ff
    | Scan (a, out_vars) -> run_scan st n a out_vars
    | Index_join (c, a, keep) ->
        let vars, n, rows = exec_probe ~dedup:true st (run_node st c) a keep in
        Bindings.of_distinct vars (array_of_rev n rows)
    | Hash_join (x, y) ->
        Observe.bump c_hash_joins;
        Bindings.join (run_node st x) (run_node st y)
    | Anti_join (x, y) -> Bindings.anti_join (run_node st x) (run_node st y)
    | Filter (c, ({ op = Scan (a, out_vars); _ } as x)) ->
        (* the leaf's own budget tick, as if it ran as a node *)
        Robust.Budget.check ();
        run_scan st ~keep:c x a out_vars
    | Filter (c, x) ->
        let b = run_node st x in
        Bindings.filter (cond_holds st (column (Bindings.vars b)) c) b
    | Builtin c -> exec_builtin st c
    | Extend (vs, x) -> Bindings.extend ~adom:st.adom vs (run_node st x)
    | Project (vs, x) -> Bindings.project vs (run_node st x)
    | Union (x, y) -> Bindings.union ~adom:st.adom (run_node st x) (run_node st y)
    | Complement x -> Bindings.complement ~adom:st.adom (run_node st x)
    | Cached (b, _) ->
        Observe.bump c_cached_hits;
        b
  in
  record_rows st n (Bindings.cardinal b);
  b

(* The head tuples of a query or rule body.  Every caller deduplicates
   them — an answer through [Relation.of_list], the fixpoint through its
   row hash sets — so a narrowed index join at the root of the body that
   binds every head variable emits its rows without deduplicating them
   itself (and [explain] shows those rows, repeats included). *)
let body_head_rows st n head =
  match n.op with
  | Index_join (c, a, keep)
    when List.for_all (function Var v -> List.mem v keep | Const _ -> true) head ->
      Robust.Budget.check ();
      let vars, k, rows = exec_probe ~dedup:false st (run_node st c) a keep in
      record_rows st n k;
      Bindings.head_tuples ~head (Array.of_list vars) rows
  | _ -> Bindings.head_rows ~adom:st.adom ~head (run_node st n)

(* A disjunct's active domain: the caller's value set (base database, plus
   any delta relation) extended with the query's constants — the
   [adom(Q, D)] the reference evaluator computes. *)
let disjunct_adom vset consts =
  lazy
    (Vset.elements
       (List.fold_left (fun s v -> Vset.add v s) (Lazy.force vset) consts))

let run_answer ~env ~dist ~record ~vset fp =
  let eval_d d =
    let adom = disjunct_adom vset d.d_consts in
    let st = { env; adom; dist; record } in
    Relation.of_list fp.fp_schema (body_head_rows st d.d_node fp.fp_head)
  in
  match fp.fp_disjuncts with
  | [] -> Relation.empty fp.fp_schema
  | [ d ] -> eval_d d
  | ds ->
      List.fold_left
        (fun acc d -> Relation.union acc (eval_d d))
        (Relation.empty fp.fp_schema) ds

(* Emptiness without materializing the answer: a disjunct contributes rows
   iff its binding set is satisfiable and any head variable it leaves
   unbound can be padded from a non-empty active domain. *)
let answer_is_empty ~env ~dist ~vset fp =
  let nonempty d =
    let adom = disjunct_adom vset d.d_consts in
    let st = { env; adom; dist; record = None } in
    let b = run_node st d.d_node in
    Bindings.is_satisfiable b
    &&
    let bv = Bindings.vars b in
    let missing =
      List.exists
        (function
          | Var v -> not (Array.exists (String.equal v) bv)
          | Const _ -> false)
        fp.fp_head
    in
    (not missing) || Lazy.force adom <> []
  in
  not (List.exists nonempty fp.fp_disjuncts)

(* The semi-naive stratified fixpoint, with IDB state held in the
   interpreter overlay instead of derived databases (so no relation
   renaming is needed for the ["@delta"] views). *)
let delta_name n = n ^ "@delta"

(* An IDB of a recursive stratum while its fixpoint runs: the rows derived
   so far (newest first) and a hash set of them, plus — only when a delta
   variant reads the whole IDB — its relation as of the last round. *)
type idb_acc = {
  ia_name : string;
  ia_schema : Schema.t;
  ia_seen : Bindings.Rowset.t;
  mutable ia_rows : Relational.Tuple.t list;
  mutable ia_full : Relation.t option;
}

(* One stratum of the semi-naive fixpoint: evaluates [stp]'s IDBs to a
   fixpoint over [env] extended with [acc_overlay] (the IDBs of earlier
   strata) and returns them prepended to [acc_overlay].  Standalone so the
   differential Datalog preparation can pre-evaluate frozen strata.

   A non-recursive stratum (no rule has a delta variant) fires its rules
   once and builds each IDB from their head rows, deduplicated through a
   row hash set first.  A recursive one tests each round's head rows
   against the IDB's row hash set; the fresh rows are the next round's
   ["@delta"] view as a row array, and the whole IDB is built as a
   relation only for delta variants that read it, and once at the end.
   Every stratum passes at least one round guard (budget tick and the
   ["plan.round"] fault site). *)
let run_stratum ~env ~dist ~record ~adom acc_overlay stp =
  let head_rows ?(deltas = []) overlay node head =
    let env = { env with overlay = overlay @ env.overlay; deltas } in
    body_head_rows { env; adom; dist; record } node head.args
  in
  let round () =
    Robust.Budget.check ();
    Robust.Fault.hit "plan.round";
    Observe.bump c_rounds
  in
  let schema (name, k) = Datalog.idb_schema name k in
  let rules_of name = List.filter (fun rp -> rp.rp_head.rel = name) stp.st_rules in
  (* Round 0 skips every rule that reads an IDB of this stratum: that IDB
     is still empty, and stratification makes the read positive, so the
     rule derives nothing. *)
  let reads_own rp =
    List.exists (fun (n, _) -> mentions_rel n rp.rp_full) stp.st_idbs
  in
  let initial name =
    List.concat_map
      (fun rp ->
        if reads_own rp then [] else head_rows acc_overlay rp.rp_full rp.rp_head)
      (rules_of name)
  in
  if List.for_all (fun rp -> rp.rp_deltas = []) stp.st_rules then begin
    let idbs =
      List.map
        (fun ((name, _) as nk) ->
          let rows = initial name in
          let seen = Bindings.Rowset.create (List.length rows) in
          let rows = List.filter (Bindings.Rowset.add seen) rows in
          (name, Relation.of_list (schema nk) rows))
        stp.st_idbs
    in
    round ();
    idbs @ acc_overlay
  end
  else begin
    let read_whole name =
      List.exists
        (fun rp -> List.exists (mentions_rel name) rp.rp_deltas)
        stp.st_rules
    in
    let accs =
      List.map
        (fun ((name, _) as nk) ->
          let sch = schema nk in
          {
            ia_name = name;
            ia_schema = sch;
            ia_seen = Bindings.Rowset.create 64;
            ia_rows = [];
            ia_full = (if read_whole name then Some (Relation.empty sch) else None);
          })
        stp.st_idbs
    in
    (* Keeps the rows the IDB lacks and returns them as its next delta. *)
    let absorb acc rows =
      let fresh = List.filter (Bindings.Rowset.add acc.ia_seen) rows in
      acc.ia_rows <- List.rev_append fresh acc.ia_rows;
      let rel = lazy (Relation.of_list acc.ia_schema fresh) in
      acc.ia_full <-
        Option.map (fun full -> Relation.union full (Lazy.force rel)) acc.ia_full;
      (delta_name acc.ia_name, { dr_rows = Array.of_list fresh; dr_rel = rel })
    in
    let rec iterate deltas =
      round ();
      if List.exists (fun (_, d) -> Array.length d.dr_rows > 0) deltas then begin
        let overlay =
          List.filter_map
            (fun acc -> Option.map (fun f -> (acc.ia_name, f)) acc.ia_full)
            accs
          @ acc_overlay
        in
        let derive rp =
          List.concat_map (fun dn -> head_rows ~deltas overlay dn rp.rp_head) rp.rp_deltas
        in
        let derived =
          List.map (fun acc -> (acc, List.concat_map derive (rules_of acc.ia_name))) accs
        in
        iterate (List.map (fun (acc, rows) -> absorb acc rows) derived)
      end
    in
    iterate (List.map (fun acc -> absorb acc (initial acc.ia_name)) accs);
    List.map
      (fun acc ->
        ( acc.ia_name,
          match acc.ia_full with
          | Some full -> full
          | None -> Relation.of_list acc.ia_schema acc.ia_rows ))
      accs
    @ acc_overlay
  end

let run_fixpoint ~env ~dist ~record ~vset dp =
  let adom = disjunct_adom vset dp.dp_consts in
  let overlay =
    List.fold_left (run_stratum ~env ~dist ~record ~adom) [] dp.dp_strata
  in
  match List.assoc_opt dp.dp_answer overlay with
  | Some r -> r
  | None -> (
      (* A differential plan may have frozen the answer's stratum: its
         pre-evaluated relation then arrives through the environment overlay
         rather than the fixpoint (see [delta_prepare_datalog]). *)
      match find_rel env dp.dp_answer with
      | Some r -> r
      | None ->
          (* [Datalog.check] guarantees the answer predicate has a rule. *)
          failwith ("Plan: answer predicate " ^ dp.dp_answer ^ " has no rule"))

let run_t ~record ~dist env vset t =
  match t with
  | Identity_plan name -> (
      match find_rel env name with
      | Some r -> r
      | None -> raise Not_found (* as the legacy [Database.find] *))
  | Empty_plan sch -> Relation.empty sch
  | Answer fp -> run_answer ~env ~dist ~record ~vset fp
  | Fixpoint dp -> run_fixpoint ~env ~dist ~record ~vset dp

let base_vset env =
  lazy
    (let s = Vset.of_list (Database.active_domain env.base) in
     List.fold_left
       (fun s (_, r) ->
         Relation.fold
           (fun tup s -> Array.fold_left (fun s v -> Vset.add v s) s tup)
           r s)
       s env.overlay)

let run ?(dist = Dist.empty) db t =
  Observe.span t_run @@ fun () ->
  Observe.bump c_execs;
  let env = base_env db in
  run_t ~record:None ~dist env (base_vset env) t

(* ------------------------------------------------------------------ *)
(* Compilation: the (U)CQ fragment                                     *)
(* ------------------------------------------------------------------ *)

(* Split a (freshened) CQ body into relation atoms and built-in conjuncts. *)
let split_cq body =
  let rec go (atoms, builtins) c =
    match c with
    | Atom a -> (a :: atoms, builtins)
    | Cmp (op, t1, t2) -> (atoms, Cond_cmp (op, t1, t2) :: builtins)
    | Dist (name, t1, t2, d) -> (atoms, Cond_dist (name, t1, t2, d) :: builtins)
    | True -> (atoms, builtins)
    | And (f1, f2) -> go (go (atoms, builtins) f1) f2
    | Exists (_, f) -> go (atoms, builtins) f
    | False | Or _ | Not _ | Forall _ ->
        invalid_arg "Plan: body is not a conjunctive query"
  in
  let atoms, builtins = go ([], []) body in
  (List.rev atoms, List.rev builtins)

(* Built-ins whose variables the node already binds become filters on it
   (predicate pushdown: a built-in fires at the first node that binds all
   its variables). *)
let apply_ready cx node pending =
  let nv = Sset.of_list node.nvars in
  let ready, rest =
    List.partition (fun c -> Sset.subset (cond_vars_set c) nv) pending
  in
  (List.fold_left (fun n c -> mk cx (Filter (c, n))) node ready, rest)

(* Built-ins left over once every atom is joined range over the active
   domain: pad, then filter — the legacy trailing [extend]/[apply_ready]. *)
let apply_trailing cx node pending =
  List.fold_left
    (fun n c ->
      let n = mk cx (Extend (cond_vars c, n)) in
      mk cx (Filter (c, n)))
    node pending

(* Stats-driven planning.  Atoms are grouped into join-connected components
   (atoms sharing a variable, transitively); each component becomes its own
   probe chain, ordered by estimated cardinality (seed with the cheapest
   atom, then greedily extend by shared variables); components are
   hash-joined cheapest-first.  Compiling components separately matters for
   delta re-evaluation: a component that never mentions the delta relation
   is a self-contained subtree the rewrite can freeze wholesale. *)
let atom_cost cx a =
  let est, _ = scan_est cx a in
  if Float.is_nan est then
    (* Unknown relations: an IDB delta view is the small seed of a
       semi-naive chain; anything else unknown goes last. *)
    if String.ends_with ~suffix:"@delta" a.rel then 0.5 else infinity
  else est

let components atoms =
  let atoms = Array.of_list atoms in
  let n = Array.length atoms in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let join i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Sset.disjoint (atom_vars_set atoms.(i)) (atom_vars_set atoms.(j)))
      then join i j
    done
  done;
  let groups = Hashtbl.create 8 in
  for i = n - 1 downto 0 do
    let root = find i in
    let prev = Option.value ~default:[] (Hashtbl.find_opt groups root) in
    Hashtbl.replace groups root (atoms.(i) :: prev)
  done;
  (* Components in first-occurrence order. *)
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  for i = 0 to n - 1 do
    let root = find i in
    if not (Hashtbl.mem seen root) then begin
      Hashtbl.add seen root ();
      out := Hashtbl.find groups root :: !out
    end
  done;
  List.rev !out

let order_stats cx atoms =
  let cost = atom_cost cx in
  let rec pick bound acc = function
    | [] -> List.rev acc
    | remaining ->
        let score a =
          let shared = Sset.cardinal (Sset.inter (atom_vars_set a) bound) in
          (float_of_int (-shared), cost a)
        in
        let best =
          List.fold_left
            (fun best a ->
              match best with
              | None -> Some a
              | Some b -> if score a < score b then Some a else best)
            None remaining
        in
        let best = Option.get best in
        let remaining = List.filter (fun a -> a != best) remaining in
        pick (Sset.union bound (atom_vars_set best)) (best :: acc) remaining
  in
  let rec min_by f = function
    | [] -> None
    | [ x ] -> Some x
    | x :: rest -> (
        match min_by f rest with Some y when f y < f x -> Some y | _ -> Some x)
  in
  match min_by cost atoms with
  | None -> []
  | Some seed ->
      let rest = List.filter (fun a -> a != seed) atoms in
      pick (atom_vars_set seed) [ seed ] rest

(* Every atom is planned as a scan of all its variables; the covering
   rewrite may narrow the list afterwards. *)
let mk_scan cx a = mk cx (Scan (a, atom_vars_sorted a))

(* Likewise every index join emits all the variables of its child and
   atom until the covering rewrite narrows it. *)
let mk_index_join cx n a = mk cx (Index_join (n, a, join_vars n a))

let build_stats cx atoms builtins =
  match atoms with
  | [] -> apply_trailing cx (mk cx Tt) builtins
  | _ ->
      let comps = List.map (order_stats cx) (components atoms) in
      let comp_cost = function [] -> infinity | a :: _ -> atom_cost cx a in
      let comps =
        List.stable_sort (fun c1 c2 -> compare (comp_cost c1) (comp_cost c2)) comps
      in
      let build_comp pending = function
        | [] -> (mk cx Tt, pending)
        | a :: rest ->
            let node, pending = apply_ready cx (mk_scan cx a) pending in
            List.fold_left
              (fun (n, pending) a ->
                apply_ready cx (mk_index_join cx n a) pending)
              (node, pending) rest
      in
      let node, pending =
        List.fold_left
          (fun (acc, pending) comp ->
            let cn, pending = build_comp pending comp in
            match acc with
            | None -> (Some cn, pending)
            | Some l ->
                let j, pending = apply_ready cx (mk cx (Hash_join (l, cn))) pending in
                (Some j, pending))
          (None, builtins) comps
      in
      apply_trailing cx (Option.get node) pending

(* ------------------------------------------------------------------ *)
(* Compilation: full FO (structural lowering)                          *)
(* ------------------------------------------------------------------ *)

let rec compile_formula cx f =
  match f with
  | True -> mk cx Tt
  | False -> mk cx Ff
  | Atom a -> mk_scan cx a
  | Cmp (op, t1, t2) -> mk cx (Builtin (Cond_cmp (op, t1, t2)))
  | Dist (name, t1, t2, d) -> mk cx (Builtin (Cond_dist (name, t1, t2, d)))
  | And _ -> compile_conj cx (conjuncts f)
  | Or (f1, f2) -> mk cx (Union (compile_formula cx f1, compile_formula cx f2))
  | Not f ->
      (* The complement must range over all free variables of f. *)
      let n = mk cx (Extend (free_vars f, compile_formula cx f)) in
      mk cx (Complement n)
  | Exists (vs, f) ->
      let n = compile_formula cx f in
      let keep = List.filter (fun v -> not (List.mem v vs)) n.nvars in
      mk cx (Project (keep, n))
  | Forall (vs, f) -> compile_formula cx (Not (exists vs (Not f)))

(* A conjunction joins its positive conjuncts first.  A comparison or
   distance — or a disjunction of them — whose variables they bind then
   becomes a [Filter], and a negation [¬h] with [fv h] bound an
   [Anti_join] against [h]: on rows whose values all lie in the active
   domain both agree with the adom lowering, which never runs for such
   guarded conjuncts.  Anything else keeps that
   lowering (a [Builtin] leaf or a padded [Complement], hash-joined in),
   and the variables it binds may make further conjuncts attachable. *)
and compile_conj cx fs =
  let rec cond_of = function
    | Cmp (op, t1, t2) -> Some (Cond_cmp (op, t1, t2))
    | Dist (name, t1, t2, d) -> Some (Cond_dist (name, t1, t2, d))
    | Or (f1, f2) -> (
        match (cond_of f1, cond_of f2) with
        | Some c1, Some c2 -> Some (Cond_or (c1, c2))
        | _ -> None)
    | _ -> None
  in
  let is_neg = function Not _ -> true | _ -> false in
  let guards, positives =
    List.partition (fun f -> is_neg f || cond_of f <> None) fs
  in
  let join left n =
    match left with None -> Some n | Some l -> Some (mk cx (Hash_join (l, n)))
  in
  let attach l f =
    match f with
    | Not h -> mk cx (Anti_join (l, compile_formula cx h))
    | _ -> mk cx (Filter (Option.get (cond_of f), l))
  in
  let rec go left pending =
    let bound =
      match left with None -> Sset.empty | Some l -> Sset.of_list l.nvars
    in
    let ready, rest =
      List.partition
        (fun f -> Sset.subset (Sset.of_list (free_vars f)) bound)
        pending
    in
    let conds, negs = List.partition (fun f -> not (is_neg f)) ready in
    let left =
      match (left, ready) with
      | None, [] -> None
      | _ ->
          let l = Option.value left ~default:(mk cx Tt) in
          Some (List.fold_left attach l (conds @ negs))
    in
    match rest with
    | [] -> left
    | f :: rest -> go (join left (compile_formula cx f)) rest
  in
  let left =
    List.fold_left (fun l f -> join l (compile_formula cx f)) None positives
  in
  match go left guards with Some n -> n | None -> mk cx Tt

(* The disjuncts of a UCQ, pushing top-level ∃ through ∨. *)
let rec ucq_disjuncts f =
  if Fragment.is_cq f then [ f ]
  else
    match f with
    | Or (f1, f2) -> ucq_disjuncts f1 @ ucq_disjuncts f2
    | Exists (vs, g) -> List.map (fun d -> exists vs d) (ucq_disjuncts g)
    | False -> []
    | _ -> invalid_arg "Plan: body is not a UCQ"

(* Covering rewrite: push the set of variables needed above each node down
   the probe chains, and narrow a [Scan] or an [Index_join] whose output
   is only partly consumed to the consumed subset.  A child must
   still provide the variables it shares with the atom joined against it
   (the join keys), plus its contribution to what the parent emits.  Nodes
   whose semantics depend on their exact variable set (extend, complement,
   union, ...) are left untouched, conservatively.  Rebuilding the spine
   with [mk] keeps nvars/estimates consistent with the pruned leaves. *)
let rec prune_covering cx needed n =
  match n.op with
  | Scan (a, out_vars) ->
      let keep = List.filter (fun v -> Sset.mem v needed) out_vars in
      if List.compare_lengths keep out_vars < 0 then mk cx (Scan (a, keep)) else n
  | Index_join (c, a, keep) ->
      let cv = Sset.of_list c.nvars in
      let cneed =
        Sset.union (Sset.inter needed cv) (Sset.inter (atom_vars_set a) cv)
      in
      let c' = prune_covering cx cneed c in
      let keep' = List.filter (fun v -> Sset.mem v needed) keep in
      if c' == c && List.compare_lengths keep' keep = 0 then n
      else mk cx (Index_join (c', a, keep'))
  | Filter (f, c) ->
      let c' = prune_covering cx (Sset.union needed (cond_vars_set f)) c in
      if c' == c then n else mk cx (Filter (f, c'))
  | Hash_join (x, y) ->
      let xv = Sset.of_list x.nvars and yv = Sset.of_list y.nvars in
      let shared = Sset.inter xv yv in
      let x' = prune_covering cx (Sset.union (Sset.inter needed xv) shared) x in
      let y' = prune_covering cx (Sset.union (Sset.inter needed yv) shared) y in
      if x' == x && y' == y then n else mk cx (Hash_join (x', y'))
  | _ -> n

let compile_fo db q =
  Observe.bump c_compiles;
  let cx = make_cx db in
  let frag = Fragment.classify_query q in
  let schema = Ast.answer_schema q in
  let head = List.map (fun v -> Var v) q.head in
  let build_cq d =
    let atoms, builtins = split_cq (freshen d) in
    prune_covering cx (Sset.of_list q.head) (build_stats cx atoms builtins)
  in
  let d_consts = all_constants q.body in
  let disjuncts =
    if Fragment.leq frag Fragment.Ucq then
      List.map (fun d -> { d_node = build_cq d; d_consts }) (ucq_disjuncts q.body)
    else [ { d_node = compile_formula cx q.body; d_consts } ]
  in
  Answer
    {
      fp_query = q;
      fp_schema = schema;
      fp_head = head;
      fp_fragment = frag;
      fp_disjuncts = disjuncts;
    }

(* ------------------------------------------------------------------ *)
(* Compilation: Datalog                                                *)
(* ------------------------------------------------------------------ *)

let body_formula body =
  conj
    (List.map
       (function
         | Datalog.Rel a -> Atom a
         | Datalog.Neg a -> Not (Atom a)
         | Datalog.Builtin (op, t1, t2) -> Cmp (op, t1, t2))
       body)

(* A rule body without negation is a CQ: plan it like an FO join chain.
   With negation, lower structurally (the stratified semantics is plain
   active-domain complement by the time the rule fires). *)
let compile_body cx body =
  let has_neg = List.exists (function Datalog.Neg _ -> true | _ -> false) body in
  if has_neg then compile_formula cx (body_formula body)
  else
    let atoms =
      List.filter_map (function Datalog.Rel a -> Some a | _ -> None) body
    in
    let builtins =
      List.filter_map
        (function
          | Datalog.Builtin (op, t1, t2) -> Some (Cond_cmp (op, t1, t2))
          | _ -> None)
        body
    in
    build_stats cx atoms builtins

let compile_datalog db p =
  Observe.bump c_compiles;
  (match Datalog.check db p with
  | Ok () -> ()
  | Error msg -> failwith ("Plan: " ^ msg));
  let strata =
    (* SCC-refined: one stratum per recursive component, so independent
       components iterate (and, under [delta_prepare_datalog], freeze)
       separately. *)
    match Datalog.refined_strata p with
    | Ok s -> s
    | Error msg -> failwith ("Plan: " ^ msg)
  in
  let idb_stratum n = Option.value ~default:0 (List.assoc_opt n strata) in
  let idbs = Datalog.idb_predicates p in
  let max_stratum = List.fold_left (fun acc n -> max acc (idb_stratum n)) 0 idbs in
  let arity n = Option.get (Datalog.predicate_arity p n) in
  let cx = make_cx db in
  let compile_rule stratum_idbs r =
    (* the head's variables are all a rule body's plan must emit *)
    let needed = atom_vars_set r.Datalog.head in
    let compile_body body = prune_covering cx needed (compile_body cx body) in
    let rp_full = compile_body r.Datalog.body in
    let rp_deltas =
      List.concat
        (List.mapi
           (fun i l ->
             match l with
             | Datalog.Rel a when List.mem a.rel stratum_idbs ->
                 let body' =
                   List.mapi
                     (fun j l' ->
                       if i = j then Datalog.Rel { a with rel = a.rel ^ "@delta" }
                       else l')
                     r.Datalog.body
                 in
                 [ compile_body body' ]
             | Datalog.Rel _ | Datalog.Neg _ | Datalog.Builtin _ -> [])
           r.Datalog.body)
    in
    { rp_head = r.Datalog.head; rp_full; rp_deltas }
  in
  let dp_strata =
    List.init (max_stratum + 1) (fun s ->
        let s_idbs = List.filter (fun n -> idb_stratum n = s) idbs in
        let rules =
          List.filter (fun r -> idb_stratum r.Datalog.head.rel = s) p.Datalog.rules
        in
        {
          st_idbs = List.map (fun n -> (n, arity n)) s_idbs;
          st_rules = List.map (compile_rule s_idbs) rules;
        })
  in
  Fixpoint
    {
      dp_program = p;
      dp_strata;
      dp_consts = Datalog.program_constants p;
      dp_answer = p.Datalog.answer;
    }

let identity name = Identity_plan name
let empty sch = Empty_plan sch

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

type cache_key = K_fo of Ast.fo_query | K_dl of Datalog.program

let key_equal k1 k2 =
  match (k1, k2) with
  | K_fo q1, K_fo q2 ->
      q1.name = q2.name && q1.head = q2.head && equal_formula q1.body q2.body
  | K_dl a, K_dl b -> a = b
  | K_fo _, K_dl _ | K_dl _, K_fo _ -> false

(* Relations the key's query can read, computed from the source AST (not
   the compiled plan, whose simplifications could hide a dependency).  For
   Datalog the list includes IDB predicates; they never name a database
   relation ([Datalog.check] forbids the collision), so their fingerprint
   entry is a constant [None]. *)
let key_rels = function
  | K_fo q -> relations_used q.body
  | K_dl (p : Datalog.program) ->
      List.sort_uniq compare
        (List.concat_map
           (fun (r : Datalog.rule) ->
             r.Datalog.head.rel
             :: List.filter_map
                  (function
                    | Datalog.Rel a | Datalog.Neg a -> Some a.rel
                    | Datalog.Builtin _ -> None)
                  r.Datalog.body)
           p.Datalog.rules)

(* The per-relation revision vector the cached plan was compiled against.
   Revision equality implies tuple-set equality, so a matching fingerprint
   guarantees the stats that drove access-path and join-order choices for
   the mentioned relations are still exact.  (The global [cadom] estimate
   also feeds the cost model; its drift under churn of *unmentioned*
   relations is accepted — it can only perturb cost estimates, never
   answers, which the plan recomputes against the live database.) *)
let fingerprint db names = List.map (fun n -> (n, Database.revision db n)) names

let cache_cap = 64
let cache_lock = Mutex.create ()

let cache : (cache_key * string list * (string * int option) list * t) list ref
    =
  ref []

let with_lock f =
  Mutex.lock cache_lock;
  match f () with
  | v ->
      Mutex.unlock cache_lock;
      v
  | exception e ->
      Mutex.unlock cache_lock;
      raise e

let cache_find db key =
  with_lock (fun () ->
      let rec go acc = function
        | [] -> None
        | ((key', names, fp, t) as e) :: rest ->
            if key_equal key key' && fingerprint db names = fp then begin
              (* Move to front: a small LRU. *)
              cache := e :: List.rev_append acc rest;
              Some t
            end
            else go (e :: acc) rest
      in
      go [] !cache)

let cache_add db key t =
  with_lock (fun () ->
      let names = key_rels key in
      let entries = (key, names, fingerprint db names, t) :: !cache in
      cache :=
        (if List.length entries > cache_cap then
           List.filteri (fun i _ -> i < cache_cap) entries
         else entries))

let compile_fo_cached db q =
  let key = K_fo q in
  match cache_find db key with
  | Some t ->
      Observe.bump c_cache_hit;
      t
  | None ->
      Observe.bump c_cache_miss;
      let t = compile_fo db q in
      cache_add db key t;
      t

let compile_datalog_cached db p =
  let key = K_dl p in
  match cache_find db key with
  | Some t ->
      Observe.bump c_cache_hit;
      t
  | None ->
      Observe.bump c_cache_miss;
      let t = compile_datalog db p in
      cache_add db key t;
      t

(* ------------------------------------------------------------------ *)
(* Delta re-evaluation                                                 *)
(* ------------------------------------------------------------------ *)

type delta = {
  d_t : t;
  d_base : Database.t;  (** the base plus an empty delta relation *)
  d_rel : string;
  d_vset : Vset.t Lazy.t;  (** active domain of the base *)
  d_dist : Dist.env;
  d_cached : int;
  d_overlay : (string * Relation.t) list;
      (** pre-evaluated frozen IDB strata of a differential Datalog plan,
          shipped through the evaluation overlay on every [delta_eval] *)
}

(* Whether the node's value depends on the active domain (which grows with
   the candidate package's values, so such nodes cannot be frozen). *)
let rec uses_adom n =
  match n.op with
  | Builtin c -> cond_vars c <> []
  | Complement _ -> true
  | Extend (vs, c) ->
      List.exists (fun v -> not (List.mem v c.nvars)) vs || uses_adom c
  | Union (a, b) -> a.nvars <> b.nvars || uses_adom a || uses_adom b
  | Tt | Ff | Scan _ | Cached _ -> false
  | Index_join (c, _, _) | Filter (_, c) | Project (_, c) -> uses_adom c
  | Hash_join (a, b) | Anti_join (a, b) -> uses_adom a || uses_adom b

let rec count_cached n =
  match n.op with
  | Cached _ -> 1
  | _ -> List.fold_left (fun acc c -> acc + count_cached c) 0 (children n)

(* Relation names a node reads at execution time.  A [Cached] leaf reports
   the relations of the node it snapshotted: the snapshot was computed from
   them, so a fingerprint over the plan must cover them. *)
let rec node_rels acc n =
  match n.op with
  | Scan (a, _) -> a.rel :: acc
  | Index_join (c, a, _) -> node_rels (a.rel :: acc) c
  | Tt | Ff | Builtin _ -> acc
  | Cached (_, c) -> node_rels acc c
  | Filter (_, c) | Extend (_, c) | Project (_, c) | Complement c ->
      node_rels acc c
  | Hash_join (a, b) | Anti_join (a, b) | Union (a, b) ->
      node_rels (node_rels acc a) b

let rels t =
  let names =
    match t with
    | Identity_plan name -> [ name ]
    | Empty_plan _ -> []
    | Answer fp ->
        List.fold_left (fun acc d -> node_rels acc d.d_node) [] fp.fp_disjuncts
    | Fixpoint dp ->
        List.fold_left
          (fun acc stp ->
            List.fold_left
              (fun acc rp ->
                List.fold_left node_rels acc (rp.rp_full :: rp.rp_deltas))
              acc stp.st_rules)
          [] dp.dp_strata
  in
  List.sort_uniq compare names

let adom_sensitive = function
  | Identity_plan _ | Empty_plan _ -> false
  | Answer fp ->
      List.exists
        (fun d ->
          uses_adom d.d_node
          || List.exists
               (function
                 | Var v -> not (List.mem v d.d_node.nvars)
                 | Const _ -> false)
               fp.fp_head)
        fp.fp_disjuncts
  | Fixpoint dp ->
      List.exists
        (fun stp ->
          List.exists
            (fun rp -> List.exists uses_adom (rp.rp_full :: rp.rp_deltas))
            stp.st_rules)
        dp.dp_strata

(* Freeze every maximal subtree whose value cannot change when the delta
   relation is populated: evaluate it once against the base and replace it
   with a [Cached] leaf. *)
let rec rewrite_delta st rel n =
  if (not (mentions_rel rel n)) && not (uses_adom n) then
    match n.op with
    | Tt | Ff | Cached _ -> n
    | _ ->
        let b = run_node st n in
        { n with op = Cached (b, n); est = float_of_int (Bindings.cardinal b) }
  else
    let op' =
      match n.op with
      | Index_join (c, a, keep) -> Index_join (rewrite_delta st rel c, a, keep)
      | Filter (f, c) -> Filter (f, rewrite_delta st rel c)
      | Extend (vs, c) -> Extend (vs, rewrite_delta st rel c)
      | Project (vs, c) -> Project (vs, rewrite_delta st rel c)
      | Complement c -> Complement (rewrite_delta st rel c)
      | Hash_join (a, b) -> Hash_join (rewrite_delta st rel a, rewrite_delta st rel b)
      | Anti_join (a, b) -> Anti_join (rewrite_delta st rel a, rewrite_delta st rel b)
      | Union (a, b) -> Union (rewrite_delta st rel a, rewrite_delta st rel b)
      | (Tt | Ff | Scan _ | Builtin _ | Cached _) as op -> op
    in
    { n with op = op' }

let delta_prepare ?(dist = Dist.empty) db ~rel ~schema q =
  Observe.bump c_delta_prepares;
  let base = Database.add (Relation.empty schema) db in
  let t = compile_fo base q in
  let vset = lazy (Vset.of_list (Database.active_domain base)) in
  let t, ncached =
    match t with
    | Answer fp ->
        let count = ref 0 in
        let env = base_env base in
        let disjuncts =
          List.map
            (fun d ->
              let adom = disjunct_adom vset d.d_consts in
              let st = { env; adom; dist; record = None } in
              let n = rewrite_delta st rel d.d_node in
              count := !count + count_cached n;
              { d with d_node = n })
            fp.fp_disjuncts
        in
        (Answer { fp with fp_disjuncts = disjuncts }, !count)
    | t -> (t, 0)
  in
  {
    d_t = t;
    d_base = base;
    d_rel = rel;
    d_vset = vset;
    d_dist = dist;
    d_cached = ncached;
    d_overlay = [];
  }

let delta_prepare_datalog ?(dist = Dist.empty) db ~rel ~schema p =
  Observe.bump c_delta_prepares;
  let base = Database.add (Relation.empty schema) db in
  let t = compile_datalog base p in
  let vset = lazy (Vset.of_list (Database.active_domain base)) in
  (* Differential fixpoint: split the strata into frozen and live.  A
     stratum is live when any of its rule nodes reads the delta relation,
     an IDB (full or ["@delta"] view) of an earlier live stratum, or the
     active domain (which grows with the delta's values).  Frozen strata
     are evaluated once here, against the base, and their IDBs shipped
     through the evaluation overlay of every [delta_eval]; only the live
     strata iterate per candidate.  Freezing need not be a prefix: a later
     stratum that depends only on EDBs and frozen IDBs freezes too. *)
  let t, d_overlay =
    match t with
    | Fixpoint dp ->
        let stratum_nodes stp =
          List.concat_map (fun rp -> rp.rp_full :: rp.rp_deltas) stp.st_rules
        in
        let env = base_env base in
        let adom = disjunct_adom vset dp.dp_consts in
        let tainted = ref [ rel ] in
        let frozen, live_rev =
          List.fold_left
            (fun (frozen, live_rev) stp ->
              let ns = stratum_nodes stp in
              let is_live =
                List.exists
                  (fun n ->
                    uses_adom n
                    || List.exists (fun r -> mentions_rel r n) !tainted)
                  ns
              in
              if is_live then begin
                tainted :=
                  List.concat_map
                    (fun (n, _) -> [ n; delta_name n ])
                    stp.st_idbs
                  @ !tainted;
                (frozen, stp :: live_rev)
              end
              else
                (run_stratum ~env ~dist ~record:None ~adom frozen stp, live_rev))
            ([], []) dp.dp_strata
        in
        (Fixpoint { dp with dp_strata = List.rev live_rev }, frozen)
    | t -> (t, [])
  in
  {
    d_t = t;
    d_base = base;
    d_rel = rel;
    d_vset = vset;
    d_dist = dist;
    d_cached = List.length d_overlay;
    d_overlay;
  }

let rq_values rq =
  Relation.fold
    (fun tup acc -> Array.fold_left (fun acc v -> Vset.add v acc) acc tup)
    rq Vset.empty

let delta_env d rq =
  { (base_env d.d_base) with overlay = (d.d_rel, rq) :: d.d_overlay }

let delta_eval d rq =
  Observe.bump c_delta_evals;
  let env = delta_env d rq in
  let vset = lazy (Vset.union (Lazy.force d.d_vset) (rq_values rq)) in
  run_t ~record:None ~dist:d.d_dist env vset d.d_t

let delta_is_empty d rq =
  Observe.bump c_delta_evals;
  let env = delta_env d rq in
  let vset = lazy (Vset.union (Lazy.force d.d_vset) (rq_values rq)) in
  match d.d_t with
  | Answer fp -> answer_is_empty ~env ~dist:d.d_dist ~vset fp
  | t -> Relation.is_empty (run_t ~record:None ~dist:d.d_dist env vset t)

let delta_cached_nodes d = d.d_cached

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

type shape = {
  scans : int;
  index_joins : int;
  hash_joins : int;
  anti_joins : int;
  filters : int;
  unions : int;
  complements : int;
  extends : int;
  builtins : int;
  cached : int;
  disjuncts : int;
  strata : int;
}

let empty_shape =
  {
    scans = 0;
    index_joins = 0;
    hash_joins = 0;
    anti_joins = 0;
    filters = 0;
    unions = 0;
    complements = 0;
    extends = 0;
    builtins = 0;
    cached = 0;
    disjuncts = 0;
    strata = 0;
  }

let rec node_shape acc n =
  let acc =
    match n.op with
    | Scan _ -> { acc with scans = acc.scans + 1 }
    | Index_join _ -> { acc with index_joins = acc.index_joins + 1 }
    | Hash_join _ -> { acc with hash_joins = acc.hash_joins + 1 }
    | Anti_join _ -> { acc with anti_joins = acc.anti_joins + 1 }
    | Filter _ -> { acc with filters = acc.filters + 1 }
    | Union _ -> { acc with unions = acc.unions + 1 }
    | Complement _ -> { acc with complements = acc.complements + 1 }
    | Extend _ -> { acc with extends = acc.extends + 1 }
    | Builtin _ -> { acc with builtins = acc.builtins + 1 }
    | Cached _ -> { acc with cached = acc.cached + 1 }
    | Tt | Ff | Project _ -> acc
  in
  match n.op with
  | Cached _ -> acc (* the frozen subtree does not execute *)
  | _ -> List.fold_left node_shape acc (children n)

let shape = function
  | Answer fp ->
      let acc =
        List.fold_left (fun acc d -> node_shape acc d.d_node) empty_shape fp.fp_disjuncts
      in
      { acc with disjuncts = List.length fp.fp_disjuncts }
  | Fixpoint dp ->
      let acc =
        List.fold_left
          (fun acc stp ->
            List.fold_left
              (fun acc rp ->
                List.fold_left node_shape (node_shape acc rp.rp_full) rp.rp_deltas)
              acc stp.st_rules)
          empty_shape dp.dp_strata
      in
      { acc with strata = List.length dp.dp_strata }
  | Identity_plan _ | Empty_plan _ -> empty_shape

(* ------------------------------------------------------------------ *)
(* Pretty-printing and explain                                         *)
(* ------------------------------------------------------------------ *)

let pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> Value.pp ppf c

let cmp_str = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_cond ppf = function
  | Cond_cmp (op, t1, t2) ->
      Format.fprintf ppf "%a %s %a" pp_term t1 (cmp_str op) pp_term t2
  | Cond_dist (name, t1, t2, d) ->
      Format.fprintf ppf "dist[%s](%a, %a) <= %g" name pp_term t1 pp_term t2 d
  | Cond_or (c1, c2) -> Format.fprintf ppf "%a | %a" pp_cond c1 pp_cond c2

let pp_atom ppf a =
  Format.fprintf ppf "%s(%a)" a.rel
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_term)
    a.args

let node_label ppf n =
  match n.op with
  | Tt -> Format.pp_print_string ppf "true"
  | Ff -> Format.pp_print_string ppf "false"
  | Scan (a, out_vars) ->
      Format.fprintf ppf "scan %a" pp_atom a;
      if out_vars <> atom_vars_sorted a then
        Format.fprintf ppf " keep [%s]" (String.concat ", " out_vars)
  | Index_join (c, a, keep) ->
      Format.fprintf ppf "index-join %a" pp_atom a;
      if keep <> join_vars c a then
        Format.fprintf ppf " keep [%s]" (String.concat ", " keep)
  | Hash_join _ -> Format.pp_print_string ppf "hash-join"
  | Anti_join _ -> Format.pp_print_string ppf "anti-join"
  | Filter (c, _) -> Format.fprintf ppf "filter %a" pp_cond c
  | Builtin c -> Format.fprintf ppf "builtin %a" pp_cond c
  | Extend (vs, _) ->
      Format.fprintf ppf "extend [%s]" (String.concat ", " vs)
  | Project (vs, _) ->
      Format.fprintf ppf "project [%s]" (String.concat ", " vs)
  | Union _ -> Format.pp_print_string ppf "union"
  | Complement _ -> Format.pp_print_string ppf "complement"
  | Cached (b, _) ->
      Format.fprintf ppf "cached (%d rows)" (Bindings.cardinal b)

let fmt_est e = if Float.is_nan e then "?" else Printf.sprintf "%.1f" e

let rec pp_node record indent ppf n =
  let est = fmt_est n.est in
  let actual =
    match record with
    | None -> ""
    | Some rc -> (
        match Hashtbl.find_opt rc n.id with
        | Some k -> Printf.sprintf ", actual %d" k
        | None -> "")
  in
  Format.fprintf ppf "%s%a  [est %s%s]@\n" indent node_label n est actual;
  let sub =
    match n.op with Cached (_, c) -> [ c ] | _ -> children n
  in
  List.iter (pp_node record (indent ^ "  ") ppf) sub

(* The constants that widen a plan's active domain, on a line of their
   own when there are any, so that a printed plan reads back with them. *)
let pp_consts ppf = function
  | [] -> ()
  | cs ->
      Format.fprintf ppf "constants %s@\n"
        (String.concat ", " (List.map Value.to_string cs))

let pp_with record ppf t =
  match t with
  | Identity_plan name -> Format.fprintf ppf "identity %s@\n" name
  | Empty_plan sch -> Format.fprintf ppf "empty %s@\n" sch.Schema.name
  | Answer fp ->
      Format.fprintf ppf "answer %s(%s)  [%s, %d disjunct(s)]@\n"
        fp.fp_query.name
        (String.concat ", " fp.fp_query.head)
        (Fragment.to_string fp.fp_fragment)
        (List.length fp.fp_disjuncts);
      List.iteri
        (fun i d ->
          if List.length fp.fp_disjuncts > 1 then
            Format.fprintf ppf "disjunct %d:@\n" (i + 1);
          pp_consts ppf d.d_consts;
          pp_node record "  " ppf d.d_node)
        fp.fp_disjuncts
  | Fixpoint dp ->
      Format.fprintf ppf "fixpoint %s  [%d stratum(s)]@\n" dp.dp_answer
        (List.length dp.dp_strata);
      pp_consts ppf dp.dp_consts;
      List.iteri
        (fun s stp ->
          Format.fprintf ppf "stratum %d: {%s}@\n" s
            (String.concat ", "
               (List.map (fun (n, k) -> Printf.sprintf "%s/%d" n k) stp.st_idbs));
          List.iter
            (fun rp ->
              Format.fprintf ppf "  rule %a:@\n" pp_atom rp.rp_head;
              pp_node record "    " ppf rp.rp_full;
              List.iteri
                (fun i dn ->
                  Format.fprintf ppf "  delta variant %d:@\n" (i + 1);
                  pp_node record "    " ppf dn)
                rp.rp_deltas)
            stp.st_rules)
        dp.dp_strata

let pp ppf t = pp_with None ppf t

let explain ?(dist = Dist.empty) db t =
  let record = Hashtbl.create 64 in
  let env = base_env db in
  Observe.bump c_execs;
  let result = run_t ~record:(Some record) ~dist env (base_vset env) t in
  Format.asprintf "%a%s" (pp_with (Some record)) t
    (Printf.sprintf "result: %d row(s)\n" (Relation.cardinal result))
