(* The pool state is an immutable snapshot published through an [Atomic]:
   readers never lock, writers re-publish under [lock].  [rev] is grown by
   doubling; entries below [n] are never mutated after publication, so a
   reader holding a stale snapshot still resolves every id it can know
   about. *)
type state = {
  fwd : int Vmap.t;
  rev : Value.t array;
  n : int;
}

let state = Atomic.make { fwd = Vmap.empty; rev = [||]; n = 0 }
let lock = Mutex.create ()

let find v = Vmap.find_opt v (Atomic.get state).fwd

let id v =
  match find v with
  | Some i -> i
  | None ->
      Mutex.protect lock (fun () ->
          let s = Atomic.get state in
          match Vmap.find_opt v s.fwd with
          | Some i -> i
          | None ->
              let rev =
                if s.n < Array.length s.rev then s.rev
                else begin
                  let cap = max 64 (2 * Array.length s.rev) in
                  let rev = Array.make cap v in
                  Array.blit s.rev 0 rev 0 s.n;
                  rev
                end
              in
              rev.(s.n) <- v;
              Atomic.set state { fwd = Vmap.add v s.n s.fwd; rev; n = s.n + 1 };
              s.n)

let value i =
  let s = Atomic.get state in
  if i >= 0 && i < s.n then s.rev.(i)
  else invalid_arg (Printf.sprintf "Intern.value: unknown id %d" i)

let pack t = Array.map id t
let size () = (Atomic.get state).n
