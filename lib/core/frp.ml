module Tuple = Relational.Tuple
module Value = Relational.Value

let get_ctx ctx inst = match ctx with Some c -> c | None -> Exist_pack.ctx inst

let enumerate ?ctx inst ~k = Exist_pack.topk (get_ctx ctx inst) ~k

let enumerate_budgeted ?budget ?ctx inst ~k =
  let value = Rating.eval inst.Instance.value in
  let best = ref None in
  Robust.Budget.run ?budget
    ~partial:(fun _ -> Option.map fst !best)
    (fun () ->
      (* A walk records the best valid package seen so far; a stored index
         is read as [enumerate] reads it. *)
      Exist_pack.topk (get_ctx ctx inst) ~k ~visit:(fun pkg ->
          let v = value pkg in
          match !best with
          | Some (_, bv) when bv >= v -> ()
          | _ -> best := Some (pkg, v)))

(* ------------------------------------------------------------------ *)
(* The paper's oracle-driven algorithm (Theorem 5.1).

   Step 3(c) of the paper determines the next tuple of the package column
   by column, installing a rating val_{c,i,N} that demotes extensions
   whose fresh tuples avoid (or fail to carry) a value c at column i.
   That construction has a gap: the "required" values of different columns
   may be witnessed by *different* tuples of an optimal extension, so the
   tuple assembled from them can lie outside every optimal extension (our
   property tests exhibit such instances).  We therefore run the same
   oracle-driven refinement at tuple granularity: for a candidate tuple t,
   the override val_{t,N} demotes strict extensions of N whose fresh part
   misses t; if the oracle still finds a package rated B, some optimal
   extension of N contains t and t can be committed.  The number of oracle
   calls stays polynomial (|Q(D)| per added tuple instead of
   arity × |adom|), so the FP^{Σ₂ᵖ} upper bound is preserved. *)
(* ------------------------------------------------------------------ *)

(* val_{t,N}: strict extensions of [base] whose fresh tuples miss [t] are
   demoted below the bound; everything else keeps its original rating. *)
let require_tuple ~value ~base ~bound t pkg =
  if not (Package.strict_superset base pkg) then value pkg
  else if Package.mem t (Package.diff pkg base) then value pkg
  else bound -. 1.

let check_integral what v =
  if Float.is_integer v || v = infinity || v = neg_infinity then ()
  else failwith (Printf.sprintf "Frp.oracle: %s rating %g is not integral" what v)

let oracle ?ctx inst ~k ~val_lo ~val_hi =
  let c = get_ctx ctx inst in
  let cands = Exist_pack.candidates c in
  let max_size = Instance.max_package_size inst in
  let value pkg =
    let v = Rating.eval inst.Instance.value pkg in
    check_integral "package" v;
    v
  in
  (* Max B in [lo, hi] such that a valid package distinct from [selected]
     with rating >= B exists; None if none exists even at B = lo. *)
  let best_bound ~selected ~hi =
    let test b =
      Option.is_some
        (Exist_pack.search c ~excluded:selected ~bound:(float_of_int b) ())
    in
    if not (test val_lo) then None
    else begin
      let lo = ref val_lo and hi = ref hi in
      (* invariant: test !lo holds; test (!hi + 1) fails *)
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo + 1) / 2) in
        if test mid then lo := mid else hi := mid - 1
      done;
      Some !lo
    end
  in
  (* Build one package of rating exactly B, extending it tuple by tuple
     (step 3(b)-(c) of the Theorem 5.1 algorithm, tuple-granular — see the
     comment above). *)
  let build ~selected b =
    let bound = float_of_int b in
    let rec grow pkg steps =
      let is_answer =
        value pkg = bound
        && (not (List.exists (Package.equal pkg) selected))
        && Validity.valid inst pkg
      in
      if is_answer then pkg
      else if steps > max_size then
        failwith "Frp.oracle: package construction exceeded the size bound"
      else
        (* Invariant: some optimal package strictly extends pkg.  Find a
           tuple every one of whose commitments the oracle certifies. *)
        let committed =
          List.find_opt
            (fun t ->
              (not (Package.mem t pkg))
              && Option.is_some
                   (Exist_pack.search c
                      ~rating:(require_tuple ~value ~base:pkg ~bound t)
                      ~containing:pkg ~excluded:selected ~bound ()))
            cands
        in
        match committed with
        | Some t -> grow (Package.add t pkg) (steps + 1)
        | None ->
            failwith
              "Frp.oracle: no committable tuple (construction invariant violated)"
    in
    grow Package.empty 0
  in
  let rec select acc hi remaining =
    if remaining = 0 then Some (List.rev acc)
    else
      match best_bound ~selected:acc ~hi with
      | None -> None
      | Some b ->
          let pkg = build ~selected:acc b in
          select (pkg :: acc) b (remaining - 1)
  in
  if val_lo > val_hi then invalid_arg "Frp.oracle: empty rating interval";
  select [] val_hi k

let branch_and_bound ?ctx ?(compat_antimonotone = false) inst ~item_value ~k =
  let c = get_ctx ctx inst in
  let items =
    List.sort
      (fun a b -> Float.compare (item_value b) (item_value a))
      (Exist_pack.candidates c)
    |> Array.of_list
  in
  let n = Array.length items in
  (* suffix_pos.(i): sum of positive item values among items.(i..) *)
  let suffix_pos = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    suffix_pos.(i) <- suffix_pos.(i + 1) +. Float.max 0. (item_value items.(i))
  done;
  let max_size = Instance.max_package_size inst in
  let budget = inst.Instance.budget in
  let cost pkg = Rating.eval inst.Instance.cost pkg in
  let cost_prunes = Rating.is_monotone inst.Instance.cost in
  (* best-k found so far, kept sorted by value descending *)
  let best = ref [] in
  let kth_value () =
    if List.length !best < k then neg_infinity
    else match List.rev !best with (v, _) :: _ -> v | [] -> neg_infinity
  in
  let record v pkg =
    best := List.filter (fun (_, p) -> not (Package.equal p pkg)) !best;
    best :=
      List.filteri
        (fun i _ -> i < k)
        (List.stable_sort
           (fun (va, pa) (vb, pb) ->
             let cv = Float.compare vb va in
             if cv <> 0 then cv else Package.compare pa pb)
           ((v, pkg) :: !best))
  in
  let rec go i pkg v =
    (* candidate check at this node (the empty package is never returned:
       the additive contract only covers non-empty packages) *)
    if (not (Package.is_empty pkg)) && (v > kth_value () || List.length !best < k)
    then begin
      if cost pkg <= budget && Validity.compatible inst pkg then record v pkg
    end;
    if i < n && Package.size pkg < max_size then begin
      (* bound: even taking every remaining positive item cannot beat the
         current kth best *)
      if v +. suffix_pos.(i) > kth_value () || List.length !best < k then begin
        let t = items.(i) in
        let pkg' = Package.add t pkg in
        let keep_branch =
          (not (cost_prunes && Package.size pkg' > 0 && cost pkg' > budget))
          && not (compat_antimonotone && not (Validity.compatible inst pkg'))
        in
        if keep_branch then go (i + 1) pkg' (v +. item_value t);
        go (i + 1) pkg v
      end
    end
  in
  go 0 Package.empty 0.;
  if List.length !best < k then None
  else
    Some
      (List.map
         (fun (v, pkg) ->
           (* additivity sanity check on the returned packages *)
           assert (
             Package.is_empty pkg
             || Float.abs (Rating.eval inst.Instance.value pkg -. v) <= 1e-9);
           pkg)
         !best)

let stream ?ctx inst = Exist_pack.ranked (get_ctx ctx inst)

let greedy ?ctx inst ~k =
  let c = get_ctx ctx inst in
  let cands = Exist_pack.candidates c in
  let value = Rating.eval inst.Instance.value in
  let valid = Validity.valid inst in
  (* Grow a package by repeatedly adding the item that most improves the
     rating while keeping the package valid. *)
  let build excluded =
    let rec improve pkg =
      let candidates_next =
        List.filter_map
          (fun t ->
            if Package.mem t pkg then None
            else
              let pkg' = Package.add t pkg in
              if valid pkg' && not (List.exists (Package.equal pkg') excluded)
              then Some (pkg', value pkg')
              else None)
          cands
      in
      match candidates_next with
      | [] -> pkg
      | _ ->
          let best, _ =
            List.fold_left
              (fun (bp, bv) (p, v) -> if v > bv then (p, v) else (bp, bv))
              (pkg, value pkg) candidates_next
          in
          if Package.equal best pkg then pkg else improve best
    in
    (* Seed with the best valid singleton not yet excluded (or ∅). *)
    let seeds =
      List.filter_map
        (fun t ->
          let p = Package.singleton t in
          if valid p && not (List.exists (Package.equal p) excluded) then
            Some (p, value p)
          else None)
        cands
    in
    match seeds with
    | [] -> None
    | (p0, v0) :: rest ->
        let seed, _ =
          List.fold_left
            (fun (bp, bv) (p, v) -> if v > bv then (p, v) else (bp, bv))
            (p0, v0) rest
        in
        let final = improve seed in
        if List.exists (Package.equal final) excluded then Some seed
        else Some final
  in
  let rec collect acc remaining =
    if remaining = 0 then List.rev acc
    else
      match build acc with
      | None -> List.rev acc
      | Some pkg -> collect (pkg :: acc) (remaining - 1)
  in
  collect [] k
