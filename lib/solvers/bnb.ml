(* The shared branch-and-bound kernel.  See bnb.mli for the architecture;
   the instantiations live in Sat (trail), Maxsat and Pb (Make), and
   Core.Exist_pack (Subset). *)

module Tick = struct
  type t = { counter : Observe.counter option; site : string }

  let make ?counter ~site () = { counter; site }

  let visit t =
    (match t.counter with Some c -> Observe.bump c | None -> ());
    Robust.Budget.check ();
    Robust.Fault.hit t.site;
    Robust.Fault.hit "bnb.node"

  let visit_root t =
    match t.counter with Some c -> Observe.bump c | None -> ()
end

module Trail = struct
  type 'a t = {
    mutable trail : 'a list;  (* most recent first *)
    undo : 'a -> unit;
    unwinds : Observe.counter option;
  }

  type 'a mark = 'a list

  let create ?unwinds ~undo () = { trail = []; undo; unwinds }

  (* The trail only grows by consing, so a previous mark is a physical
     suffix of the current trail: unwinding compares with [==], exactly
     the discipline the DPLL solver used before the kernel existed. *)
  let mark t = t.trail

  let push t x = t.trail <- x :: t.trail

  let undo_to t m =
    if t.trail != m then
      Option.iter Observe.bump t.unwinds;
    let rec go () =
      if t.trail != m then
        match t.trail with
        | x :: rest ->
            t.undo x;
            t.trail <- rest;
            go ()
        | [] -> ()
    in
    go ()
end

module Incumbent = struct
  type 'a t = {
    mutable best : (float * 'a) option;
    on_improve : float -> 'a -> unit;
  }

  let create ?(on_improve = fun _ _ -> ()) () = { best = None; on_improve }

  let value t = match t.best with Some (v, _) -> v | None -> neg_infinity

  let note t v x =
    if v > value t then begin
      t.best <- Some (v, x);
      t.on_improve v x
    end

  let best t = t.best
end

module type SPACE = sig
  type state

  val tick : Tick.t
  val branches : state -> state list
  val solution : state -> float option
  val bound : state -> float
end

module Make (S : SPACE) = struct
  let maximize ?incumbent root =
    let inc =
      match incumbent with Some i -> i | None -> Incumbent.create ()
    in
    let rec go st =
      Tick.visit S.tick;
      if S.bound st > Incumbent.value inc then begin
        (match S.solution st with
        | Some v -> Incumbent.note inc v st
        | None -> ());
        List.iter go (S.branches st)
      end
    in
    go root;
    Incumbent.best inc
end

module Subset = struct
  type ('st, 'it) space = {
    items : 'it array;
    max_size : int;
    size : 'st -> int;
    skip : 'st -> 'it -> bool;
    child : 'st -> 'it -> 'st option;
    tick : Tick.t;
  }

  (* Depth-first walk of the strict extensions of [st] by items at index
     [i] and above, each visited before its own extensions — together with
     the index threading this is precisely the size-lexicographic DFS
     order. *)
  let rec extend sp visit st i =
    if sp.size st < sp.max_size then
      for j = i to Array.length sp.items - 1 do
        let it = sp.items.(j) in
        if not (sp.skip st it) then
          match sp.child st it with
          | None -> ()
          | Some st' ->
              Tick.visit sp.tick;
              visit st';
              extend sp visit st' (j + 1)
      done

  let enumerate sp ~base visit =
    if sp.size base <= sp.max_size then begin
      Tick.visit_root sp.tick;
      visit base;
      extend sp visit base 0
    end

  exception Found

  let find_first sp ~base ~accept =
    let hit = ref None in
    try
      enumerate sp ~base (fun st ->
          if accept st then begin
            hit := Some st;
            raise Found
          end);
      None
    with Found -> !hit

  let collect sp ~base ~keep =
    let acc = ref [] in
    enumerate sp ~base (fun st -> if keep st then acc := st :: !acc);
    List.rev !acc
end
