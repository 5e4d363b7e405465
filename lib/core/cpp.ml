let get_ctx ctx inst = match ctx with Some c -> c | None -> Exist_pack.ctx inst

let count ?ctx inst ~bound = Exist_pack.count ~bound (get_ctx ctx inst)

let count_strict ?ctx inst ~bound =
  Exist_pack.count ~strict:true ~bound (get_ctx ctx inst)

let count_budgeted ?budget ?ctx inst ~bound =
  (* The enumeration is sequential and only ever increments [n] after fully
     validating a package, so on exhaustion [n] is a verified lower bound
     on the true count (0 while a stored index is being searched). *)
  let value = Rating.eval inst.Instance.value in
  let n = ref 0 in
  Robust.Budget.run ?budget
    ~partial:(fun _ -> Some !n)
    (fun () ->
      Exist_pack.count ~bound (get_ctx ctx inst) ~visit:(fun pkg ->
          if value pkg >= bound then incr n))

(* C(n, j) as a float (the strata can be astronomically large).  Overflows
   to [infinity] past ~1.8e308; callers must handle that — [log_choose]
   stays finite far beyond. *)
let choose n j =
  let rec go acc i =
    if i > j then acc
    else go (acc *. float_of_int (n - i + 1) /. float_of_int i) (i + 1)
  in
  if j < 0 || j > n then 0. else go 1. 1

let log_choose n j =
  if j < 0 || j > n then neg_infinity
  else begin
    let l = ref 0. in
    for i = 1 to j do
      l := !l +. log (float_of_int (n - i + 1)) -. log (float_of_int i)
    done;
    !l
  end

let estimate ?ctx inst ~bound ~samples_per_size rng =
  if samples_per_size <= 0 then invalid_arg "Cpp.estimate: need samples";
  let c = get_ctx ctx inst in
  let cands = Array.of_list (Exist_pack.candidates c) in
  let n = Array.length cands in
  let max_size = min n (Instance.max_package_size inst) in
  let candidates_rel = Instance.candidates inst in
  let valid pkg = Validity.valid_for_bound ~candidates:candidates_rel inst ~bound pkg in
  (* a uniformly random j-subset via a partial Fisher-Yates shuffle *)
  let sample j =
    let idx = Array.init n (fun i -> i) in
    for i = 0 to j - 1 do
      let r = i + Random.State.int rng (n - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(r);
      idx.(r) <- tmp
    done;
    Package.of_tuples (List.init j (fun i -> cands.(idx.(i))))
  in
  let total = ref 0. in
  for j = 0 to max_size do
    if j <= n then begin
      let hits = ref 0 in
      if j = 0 then begin
        if valid Package.empty then hits := samples_per_size
      end
      else
        for _ = 1 to samples_per_size do
          if valid (sample j) then incr hits
        done;
      (* A zero-hit stratum contributes 0 whatever its size — skipping it
         here is what keeps an overflowed C(n, j) from poisoning the sum
         with inf·0 = nan. *)
      if !hits > 0 then begin
        let frac = float_of_int !hits /. float_of_int samples_per_size in
        let stratum = choose n j in
        let contribution =
          if Float.is_finite stratum then stratum *. frac
          else
            (* The stratum count overflows a float, but the scaled
               contribution may not: redo it in log-space and only give
               up when the contribution itself is unrepresentable. *)
            let log_contribution = log_choose n j +. log frac in
            if log_contribution >= log Float.max_float then
              failwith
                (Printf.sprintf
                   "Cpp.estimate: stratum j=%d contributes C(%d,%d)·%g, \
                    which overflows a float; the estimated count exceeds \
                    ~1.8e308"
                   j n j frac)
            else exp log_contribution
        in
        total := !total +. contribution;
        if not (Float.is_finite !total) then
          failwith
            (Printf.sprintf
               "Cpp.estimate: the running total overflows a float at \
                stratum j=%d (n=%d); the estimated count exceeds ~1.8e308"
               j n)
      end
    end
  done;
  !total
