exception Injected of string

type kind =
  | Exn
  | Exhaust

let sites =
  [
    "bnb.node";
    "pb.node";
    "sat.conflict";
    "qbf.node";
    "count.node";
    "maxsat.node";
    "memo.candidates";
    "memo.compat";
    "memo.valid";
    "rel.maintain";
    "plan.join";
    "plan.round";
    "oracle.node";
    "sketch.partition";
    "sketch.refine";
    "relax.step";
    "adjust.delta";
    "serve.accept";
    "serve.dispatch";
    "serve.respond";
  ]

type spec = {
  site : string;
  nth : int;
  kind : kind;
  hits : int Atomic.t;
}

let armed : spec option Atomic.t = Atomic.make None

let c_injected = Observe.counter "robust.faults_injected"

let arm ~site ~nth ~kind =
  Atomic.set armed (Some { site; nth; kind; hits = Atomic.make 0 })

let disarm () = Atomic.set armed None

let parse s =
  match String.split_on_char ':' s with
  | [ site; nth ] | [ site; nth; "exn" ] -> (
      match int_of_string_opt nth with
      | Some n when n > 0 && site <> "" -> Some (site, n, Exn)
      | _ -> None)
  | [ site; nth; "exhaust" ] -> (
      match int_of_string_opt nth with
      | Some n when n > 0 && site <> "" -> Some (site, n, Exhaust)
      | _ -> None)
  | _ -> None

let () =
  match Sys.getenv_opt "PKG_FAULT" with
  | None | Some "" -> ()
  | Some s -> (
      match parse s with
      | Some (site, nth, kind) -> arm ~site ~nth ~kind
      | None ->
          Printf.eprintf "warning: ignoring malformed PKG_FAULT=%S %s\n%!" s
            "(expected <site>:<nth>[:exn|exhaust])")

let fire spec cur =
  Observe.bump c_injected;
  (* One-shot: disarm before raising so retries run clean.  The CAS
     must compare the physically-read option cell ([cur]), not a fresh
     [Some spec] allocation — the latter never matches, which would
     leave the fault armed and firing on every later hit (a long-lived
     server would then fail every subsequent request). *)
  ignore (Atomic.compare_and_set armed cur None);
  match spec.kind with
  | Exn -> raise (Injected spec.site)
  | Exhaust -> raise (Budget.Exhausted (Budget.Fault spec.site))

let hit site =
  match Atomic.get armed with
  | None -> ()
  | Some spec as cur ->
      (* Exactly the nth hit fires: two domains that both read the spec
         before the disarm below must not both fire. *)
      if String.equal spec.site site then
        if Atomic.fetch_and_add spec.hits 1 + 1 = spec.nth then fire spec cur
