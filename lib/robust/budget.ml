type reason =
  | Deadline
  | Fuel
  | Fault of string

let reason_to_string = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Fault site -> Printf.sprintf "fault:%s" site

exception Exhausted of reason

type t = {
  deadline : float;  (* absolute epoch seconds; [infinity] = none *)
  fuel : int;  (* max ticks; [max_int] = unlimited *)
  ticks : int Atomic.t;
  tripped : reason option Atomic.t;  (* the first exhaustion reason *)
}

let c_exhausted = Observe.counter "robust.exhausted"

let make ?deadline ?fuel () =
  let deadline =
    match deadline with
    | None -> infinity
    | Some s -> Unix.gettimeofday () +. s
  in
  let fuel = Option.value fuel ~default:max_int in
  {
    deadline;
    fuel;
    ticks = Atomic.make 0;
    tripped = Atomic.make None;
  }

let ticks b = Atomic.get b.ticks

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_budget b f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let unbudgeted f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key None;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* Latch the first reason, then raise whatever actually won the race so
   concurrent trippers agree on one story. *)
let trip b r =
  if Atomic.compare_and_set b.tripped None (Some r) then
    Observe.bump c_exhausted;
  match Atomic.get b.tripped with
  | Some r -> raise (Exhausted r)
  | None -> assert false

let check_installed b =
  (match Atomic.get b.tripped with
  | Some r -> raise (Exhausted r)
  | None -> ());
  let n = Atomic.fetch_and_add b.ticks 1 in
  if n >= b.fuel then trip b Fuel;
  if
    b.deadline < infinity
    && n land 0xff = 0
    && Unix.gettimeofday () > b.deadline
  then trip b Deadline

let check () =
  match Domain.DLS.get key with None -> () | Some b -> check_installed b

type ('a, 'p) outcome =
  | Exact of 'a
  | Partial of { best_so_far : 'p option; reason : reason; work_done : int }

let run ?budget ~partial f =
  let go () =
    match budget with Some b -> with_budget b f | None -> f ()
  in
  try Exact (go ())
  with Exhausted reason ->
    let work_done =
      match budget with
      | Some b -> Atomic.get b.ticks
      | None -> (
          match current () with Some b -> Atomic.get b.ticks | None -> 0)
    in
    Partial { best_so_far = partial reason; reason; work_done }
