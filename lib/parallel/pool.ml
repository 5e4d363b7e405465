let c_spawns = Observe.counter "pool.domains_spawned"

type panic = { exn : exn; bt : Printexc.raw_backtrace }

(* A worker set runs [work i] on [domains] freshly spawned domains until
   each returns — the calling domain is NOT one of the workers, so it can
   keep doing its own work (the serving daemon's accept/read loop) while
   the set runs.  A worker's uncaught exception is latched and re-raised
   at [join_workers]; the other workers keep running (each [work] is
   expected to catch its own per-item failures — the latch is a
   programming-error backstop, not a control path). *)
type worker_set = {
  ws_domains : unit Domain.t list;
  ws_panic : panic option Atomic.t;
}

let spawn_workers ~domains work =
  let domains = max 1 domains in
  Observe.add c_spawns domains;
  let panic = Atomic.make None in
  let run i () =
    try work i
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set panic None (Some { exn; bt }))
  in
  {
    ws_domains = List.init domains (fun i -> Domain.spawn (run i));
    ws_panic = panic;
  }

let join_workers ws =
  List.iter Domain.join ws.ws_domains;
  match Atomic.get ws.ws_panic with
  | Some { exn; bt } -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let set_domains_override (_ : int option) = ()
