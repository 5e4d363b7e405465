module Tset = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

module Vset = Set.Make (Value)

let c_maintained = Observe.counter "rel.maintained"
let c_degraded = Observe.counter "rel.maintain_degraded"

(* Lazily-built acceleration structures.  A cache belongs to exactly one
   tuple set: every operation that derives a relation with a different
   tuple set attaches a fresh (empty) cache, which is what invalidates the
   indexes on update — except [add]/[remove], which derive the by-column
   indexes and the counts their parent has already built by applying the
   one-tuple delta to the parent's persistent maps (see [derive_caches]).
   [rename] keeps the cache — the structures depend only on the tuples.

   Forcing discipline (the serving daemon forces these from many domains
   at once): fields are fetched under [lock], but {e built outside it} —
   a miss computes the structure from the immutable tuple set with no
   lock held, then publishes under [lock] with the first completed build
   winning.  Concurrent forcing is therefore an idempotent double-force
   (both domains compute the same pure function of the tuple set; the
   loser's copy is garbage), never a torn publication — a structure is
   fully built before any other domain can obtain it, and the mutex
   acquisition gives the happens-before edge — and never a serialization
   point: a domain building a large index does not block readers of the
   already-published structures. *)
type cache = {
  lock : Mutex.t;
  mutable arr : Tuple.t array option;
      (* elements, ascending; never derived by [add]/[remove] *)
  mutable by_col : (int * Tuple.t list Vmap.t) list;
      (* column -> (value -> tuples with that value, ascending) *)
  mutable counts : int Vmap.t array option;
      (* per-column occurrence counts (value -> #rows) backing Stats *)
}

let fresh_cache () =
  { lock = Mutex.create (); arr = None; by_col = []; counts = None }

(* Revisions: every distinct tuple set materialized through this module
   gets a process-unique integer, so equal revisions imply equal tuple
   sets (never the converse).  The one-step [undo] record lets an
   add-then-remove (or remove-then-add) of the same tuple restore its
   parent's revision: the net no-op is recognized by revision-keyed
   consumers (the plan cache, instance memos) instead of reading as a
   brand-new database.  Only one step is kept — no parent pointers, so
   sustained churn retains no history chain. *)
type undo = { u_tup : Tuple.t; u_added : bool; u_parent_rev : int }

type t = {
  schema : Schema.t;
  tuples : Tset.t;
  rev : int;
  undo : undo option;
  cache : cache;
}

let next_rev = Atomic.make 0
let new_rev () = Atomic.fetch_and_add next_rev 1

let make schema tuples =
  { schema; tuples; rev = new_rev (); undo = None; cache = fresh_cache () }

let empty schema = make schema Tset.empty
let revision r = r.rev

let check_arity schema tup =
  if Tuple.arity tup <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation: tuple arity %d does not match schema %s/%d"
         (Tuple.arity tup) schema.Schema.name (Schema.arity schema))

let of_list schema tuples =
  List.iter (check_arity schema) tuples;
  make schema (Tset.of_list tuples)

let of_int_rows schema rows = of_list schema (List.map Tuple.of_ints rows)

let schema r = r.schema
let arity r = Schema.arity r.schema
let cardinal r = Tset.cardinal r.tuples
let is_empty r = Tset.is_empty r.tuples
let mem tup r = Tset.mem tup r.tuples

let peek_counts r = Mutex.protect r.cache.lock (fun () -> r.cache.counts)

(* ---- one-tuple derivation of the write-maintained structures ------- *)

let rec bucket_insert tup = function
  | [] -> [ tup ]
  | t :: rest as l ->
      if Tuple.compare tup t < 0 then tup :: l else t :: bucket_insert tup rest

(* The one-tuple delta on a count map and on an index bucket.  A count
   reaching zero deletes its key: a lingering [0] entry would inflate the
   distinct counts {!Stats} reads and skew the planner's join-order
   estimates under churn.  An emptied bucket deletes its key likewise. *)
let bump_count delta = function
  | None -> if delta > 0 then Some delta else None
  | Some n -> if n + delta > 0 then Some (n + delta) else None

let patch_bucket delta tup = function
  | None -> if delta > 0 then Some [ tup ] else None
  | Some b -> (
      if delta > 0 then Some (bucket_insert tup b)
      else
        match List.filter (fun t -> not (Tuple.equal t tup)) b with
        | [] -> None
        | b -> Some b)

(* Derive the by-column indexes and the counts the parent has already
   built — the structures plans and {!Stats} read after a write — by
   applying the one-tuple delta to the parent's persistent maps: O(log n)
   per structure, never a from-scratch rebuild, and the parent's
   (published) maps are shared, not mutated.  The sorted array is left to
   its lazy rebuild.  [child] is freshly built and unpublished, so its
   cache needs no lock yet.

   An injected ["rel.maintain"] fault degrades cleanly: the partially
   derived structures are dropped and the child falls back to the lazy
   from-scratch rebuilds — correctness never depends on derivation. *)
let derive_caches parent delta tup child =
  let by_col, counts =
    let c = parent.cache in
    Mutex.protect c.lock (fun () -> (c.by_col, c.counts))
  in
  if by_col <> [] || counts <> None then begin
    let cc = child.cache in
    try
      Robust.Fault.hit "rel.maintain";
      cc.counts <-
        Option.map
          (Array.mapi (fun i m -> Vmap.update tup.(i) (bump_count delta) m))
          counts;
      cc.by_col <-
        List.map
          (fun (col, ix) -> (col, Vmap.update tup.(col) (patch_bucket delta tup) ix))
          by_col;
      Observe.bump c_maintained
    with Robust.Fault.Injected _ ->
      cc.by_col <- [];
      cc.counts <- None;
      Observe.bump c_degraded
  end

let add tup r =
  check_arity r.schema tup;
  if Tset.mem tup r.tuples then r
  else begin
    let rev, parent_rev =
      match r.undo with
      | Some u when (not u.u_added) && Tuple.equal u.u_tup tup ->
          (* re-adding the tuple the parent removed: the tuple set is the
             grandparent's again, so its revision is restored *)
          (u.u_parent_rev, r.rev)
      | _ -> (new_rev (), r.rev)
    in
    let r' =
      {
        schema = r.schema;
        tuples = Tset.add tup r.tuples;
        rev;
        undo = Some { u_tup = tup; u_added = true; u_parent_rev = parent_rev };
        cache = fresh_cache ();
      }
    in
    derive_caches r 1 tup r';
    r'
  end

let remove tup r =
  if not (Tset.mem tup r.tuples) then r
  else begin
    let rev, parent_rev =
      match r.undo with
      | Some u when u.u_added && Tuple.equal u.u_tup tup -> (u.u_parent_rev, r.rev)
      | _ -> (new_rev (), r.rev)
    in
    let r' =
      {
        schema = r.schema;
        tuples = Tset.remove tup r.tuples;
        rev;
        undo = Some { u_tup = tup; u_added = false; u_parent_rev = parent_rev };
        cache = fresh_cache ();
      }
    in
    derive_caches r (-1) tup r';
    r'
  end

let to_list r = Tset.elements r.tuples
let fold f r acc = Tset.fold f r.tuples acc
let iter f r = Tset.iter f r.tuples
let filter p r = make r.schema (Tset.filter p r.tuples)
let exists p r = Tset.exists p r.tuples
let for_all p r = Tset.for_all p r.tuples

let same_arity a b =
  if arity a <> arity b then invalid_arg "Relation: arity mismatch"

let union a b =
  same_arity a b;
  make a.schema (Tset.union a.tuples b.tuples)

let inter a b =
  same_arity a b;
  make a.schema (Tset.inter a.tuples b.tuples)

let diff a b =
  same_arity a b;
  make a.schema (Tset.diff a.tuples b.tuples)

let subset a b = Tset.subset a.tuples b.tuples
let equal a b = Tset.equal a.tuples b.tuples

let project sch cols r =
  (* The projection of any tuple has arity [length cols]: checking the
     schema against the column list once replaces the per-tuple
     re-validation (which materialized the whole result as a list). *)
  if List.length cols <> Schema.arity sch then
    invalid_arg
      (Printf.sprintf "Relation.project: %d columns do not match schema %s/%d"
         (List.length cols) sch.Schema.name (Schema.arity sch));
  let tuples =
    Tset.fold (fun t acc -> Tset.add (Tuple.project cols t) acc) r.tuples Tset.empty
  in
  make sch tuples

let product sch a b =
  let tuples =
    Tset.fold
      (fun ta acc ->
        Tset.fold (fun tb acc -> Tset.add (Tuple.concat ta tb) acc) b.tuples acc)
      a.tuples Tset.empty
  in
  make sch tuples

let rename sch r =
  if Schema.arity sch <> arity r then invalid_arg "Relation.rename: arity mismatch";
  { r with schema = sch }

(* ------------------------------------------------------------------ *)
(* Lazily-built fast paths                                             *)
(* ------------------------------------------------------------------ *)

(* [force get set build]: fetch under the lock, build outside it on a
   miss, publish first-completed-wins.  [build] must be a pure function
   of the (immutable) tuple set, which is what makes the double-force
   idempotent. *)
let force lock get set build =
  match Mutex.protect lock get with
  | Some v -> v
  | None ->
      let v = build () in
      Mutex.protect lock (fun () ->
          match get () with
          | Some v' -> v' (* another domain published first; keep theirs *)
          | None ->
              set v;
              v)

let to_array r =
  let c = r.cache in
  force c.lock
    (fun () -> c.arr)
    (fun a -> c.arr <- Some a)
    (fun () ->
      let a = Array.make (Tset.cardinal r.tuples) [||] in
      let i = ref 0 in
      Tset.iter
        (fun t ->
          a.(!i) <- t;
          incr i)
        r.tuples;
      a)

(* From-scratch builds of the value-keyed structures sort instead of
   hashing: the tuples are sorted by the column's value in a transient
   array, and the map is built from the runs of equal values in one pass,
   [value a lo hi] giving the binding of the run [a.(lo .. hi - 1)].
   Nothing but that array and the final map is allocated — building in a
   hash table first left enough garbage to raise a loaded daemon's peak
   RSS.  The tuple set iterates in increasing order, so column 0 arrives
   sorted, and a stable sort keeps each run in increasing order. *)
let by_runs r col value =
  let a = Array.make (Tset.cardinal r.tuples) [||] in
  let i = ref 0 in
  Tset.iter
    (fun t ->
      a.(!i) <- t;
      incr i)
    r.tuples;
  if col > 0 then Array.stable_sort (fun t u -> Value.compare t.(col) u.(col)) a;
  let n = Array.length a in
  let run_start i = i = 0 || not (Value.equal a.(i - 1).(col) a.(i).(col)) in
  let runs = ref 0 in
  for i = 0 to n - 1 do
    if run_start i then incr runs
  done;
  (* the start of each run, then [n] *)
  let starts = Array.make (!runs + 1) n in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if run_start i then begin
      starts.(!j) <- i;
      incr j
    end
  done;
  Vmap.init_sorted !runs
    (fun k -> a.(starts.(k)).(col))
    (fun k -> value a starts.(k) starts.(k + 1))

type index = Tuple.t list Vmap.t

let index_on r col =
  if col < 0 || col >= arity r then invalid_arg "Relation.index_on: column out of range";
  let c = r.cache in
  force c.lock
    (fun () -> List.assoc_opt col c.by_col)
    (fun ix -> c.by_col <- (col, ix) :: c.by_col)
    (fun () -> by_runs r col (fun a lo hi -> List.init (hi - lo) (fun j -> a.(lo + j))))

let probe ix v = Vmap.find_or ~default:[] v ix

let select_eq r col v = probe (index_on r col) v

let indexed_cols r =
  Mutex.protect r.cache.lock (fun () ->
      List.sort_uniq Int.compare (List.map fst r.cache.by_col))

let values r =
  Tset.fold
    (fun t acc -> Array.fold_left (fun acc v -> Vset.add v acc) acc t)
    r.tuples Vset.empty
  |> Vset.elements

let columns r =
  Column.of_tuples ~name:r.schema.Schema.name ~arity:(arity r)
    (Array.of_list (Tset.elements r.tuples))

let col_counts r =
  let c = r.cache in
  force c.lock
    (fun () -> c.counts)
    (fun counts -> c.counts <- Some counts)
    (fun () ->
      Array.init (arity r) (fun col -> by_runs r col (fun _ lo hi -> hi - lo)))

let has_counts r = Mutex.protect r.cache.lock (fun () -> r.cache.counts <> None)

let has_index_on r col =
  Mutex.protect r.cache.lock (fun () -> List.mem_assoc col r.cache.by_col)

let counts_mem r v =
  Option.map (Array.exists (Vmap.mem v)) (peek_counts r)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tuple.pp)
    (to_list r)
