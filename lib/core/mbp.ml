let get_ctx ctx inst = match ctx with Some c -> c | None -> Exist_pack.ctx inst

let is_bound ?ctx inst ~k ~bound =
  let c = get_ctx ctx inst in
  Option.is_some (Exist_pack.find_k_distinct ~bound ~k c)

let is_max_bound ?ctx inst ~k ~bound =
  let c = get_ctx ctx inst in
  Option.is_some (Exist_pack.find_k_distinct ~bound ~k c)
  && Option.is_none (Exist_pack.find_k_distinct ~strict:true ~bound ~k c)

let max_bound ?ctx inst ~k = Exist_pack.kth_value (get_ctx ctx inst) ~k

let max_bound_budgeted ?budget ?ctx inst ~k =
  (* A partially explored search says nothing sound about the k-th largest
     rating (an unseen package could raise it), so MBP reports Unknown:
     [Partial] with no payload. *)
  Robust.Budget.run ?budget
    ~partial:(fun _ -> None)
    (fun () -> max_bound ?ctx inst ~k)
