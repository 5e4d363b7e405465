module Instance = Core.Instance
module Dispatch = Core.Dispatch
module Package = Core.Package
module Rating = Core.Rating
module Budget = Robust.Budget
module Fault = Robust.Fault
module Relation = Relational.Relation
module Tuple = Relational.Tuple

let c_requests = Observe.counter "serve.requests"
let c_accepted = Observe.counter "serve.accepted"
let c_ok = Observe.counter "serve.ok"
let c_partial = Observe.counter "serve.partial"
let c_shed = Observe.counter "serve.shed"
let c_errors = Observe.counter "serve.errors"
let t_exec = Observe.timer "serve.exec"

(* Named per-request failures (missing/unknown instance, control verb on
   the data plane, ...): reported to the client, never to the daemon. *)
exception Bad_request of string

(* ------------------------------------------------------------------ *)
(* Bounded request queue                                               *)
(* ------------------------------------------------------------------ *)

(* The admission-control valve: [try_push] refuses instead of blocking,
   so the I/O loop can turn a full queue into an [overloaded] response
   immediately.  [pop] blocks; after [close] it drains the remainder
   and then returns [None] to each worker. *)
module Bq = struct
  type 'a t = {
    lock : Mutex.t;
    nonempty : Condition.t;
    q : 'a Queue.t;
    cap : int;
    mutable closed : bool;
  }

  let create cap =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      cap;
      closed = false;
    }

  let try_push t x =
    Mutex.protect t.lock (fun () ->
        if t.closed || Queue.length t.q >= t.cap then false
        else begin
          Queue.push x t.q;
          Condition.signal t.nonempty;
          true
        end)

  let pop t =
    Mutex.lock t.lock;
    let rec wait () =
      if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
      else if t.closed then None
      else begin
        Condition.wait t.nonempty t.lock;
        wait ()
      end
    in
    let r = wait () in
    Mutex.unlock t.lock;
    r

  let close t =
    Mutex.protect t.lock (fun () ->
        t.closed <- true;
        Condition.broadcast t.nonempty)

  let length t = Mutex.protect t.lock (fun () -> Queue.length t.q)
end

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  domains : int;
  queue_cap : int;
  deadline : float option;
  max_deadline : float option;
  fuel : int option;
  trace : (string -> unit) option;
}

(* The runtime's domain limit ([Max_domains], 128 by default) counts the
   calling domain. *)
let max_workers = 127

let default_config =
  {
    domains = min max_workers (Domain.recommended_domain_count ());
    queue_cap = 64;
    deadline = None;
    max_deadline = None;
    fuel = None;
    trace = None;
  }

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* response lines are written whole, one at a time *)
  rbuf : Buffer.t;  (* partial line carried between reads (I/O domain only) *)
  mutable skipping : bool;  (* dropping an overlong line up to its newline *)
  mutable reof : bool;
  outstanding : int Atomic.t;  (* queued requests not yet responded *)
  mutable dead : bool;  (* a write failed; stop writing, close when drained *)
}

type item = {
  it_conn : conn;
  it_req : Proto.request;
  it_arrival : float;
}

type stats_cells = {
  s_accepted : int Atomic.t;
  s_ok : int Atomic.t;
  s_partial : int Atomic.t;
  s_shed : int Atomic.t;
  s_errors : int Atomic.t;
  s_dropped : int Atomic.t;
  s_conns : int Atomic.t;
}

type t = {
  reg : (string * Instance.t) list;
  config : config;
  queue : item Bq.t;
  stopping : bool Atomic.t;
  st : stats_cells;
  tlock : Mutex.t;  (* serializes the NDJSON trace sink *)
}

let create ?(config = default_config) reg =
  if config.domains > max_workers then
    invalid_arg
      (Printf.sprintf "Server.create: %d worker domains exceed the limit of %d"
         config.domains max_workers);
  let names = List.map fst reg in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Server.create: duplicate instance name";
  List.iter (fun (_, inst) -> Instance.prewarm inst) reg;
  let config =
    { config with domains = max 1 config.domains; queue_cap = max 1 config.queue_cap }
  in
  {
    reg;
    config;
    queue = Bq.create config.queue_cap;
    stopping = Atomic.make false;
    st =
      {
        s_accepted = Atomic.make 0;
        s_ok = Atomic.make 0;
        s_partial = Atomic.make 0;
        s_shed = Atomic.make 0;
        s_errors = Atomic.make 0;
        s_dropped = Atomic.make 0;
        s_conns = Atomic.make 0;
      };
    tlock = Mutex.create ();
  }

let stats t =
  [
    ("accepted", Atomic.get t.st.s_accepted);
    ("conns", Atomic.get t.st.s_conns);
    ("dropped", Atomic.get t.st.s_dropped);
    ("errors", Atomic.get t.st.s_errors);
    ("ok", Atomic.get t.st.s_ok);
    ("partial", Atomic.get t.st.s_partial);
    ("shed", Atomic.get t.st.s_shed);
  ]

let stop t = Atomic.set t.stopping true

(* ------------------------------------------------------------------ *)
(* Request execution (shared by the worker path and the oracle)        *)
(* ------------------------------------------------------------------ *)

let find_inst reg req =
  match req.Proto.inst with
  | None -> raise (Bad_request "missing inst=")
  | Some n -> (
      match List.assoc_opt n reg with
      | Some i -> i
      | None -> raise (Bad_request ("unknown instance: " ^ n)))

let parse_query inst req =
  match req.Proto.query with
  | None -> inst.Instance.select
  | Some text ->
      if req.Proto.datalog then Qlang.Query.Dl (Qlang.Parser.parse_program text)
      else Qlang.Query.Fo (Qlang.Parser.parse_query text)

let json_of_tuples tuples =
  Printf.sprintf "[%s]"
    (String.concat ", "
       (List.map
          (fun tp -> "\"" ^ Proto.json_escape (Tuple.to_string tp) ^ "\"")
          tuples))

let json_of_relation rel =
  let tuples = Relation.to_list rel in
  Printf.sprintf "{\"tuples\": %d, \"answers\": %s}" (List.length tuples)
    (json_of_tuples tuples)

let json_of_package inst pkg =
  Printf.sprintf "{\"value\": %s, \"cost\": %s, \"items\": %s}"
    (Proto.json_float (Rating.eval inst.Instance.value pkg))
    (Proto.json_float (Rating.eval inst.Instance.cost pkg))
    (json_of_tuples (Package.to_list pkg))

let ok data = (Proto.Ok_, None, data)
let partial reason data = (Proto.Partial, Some (Budget.reason_to_string reason), data)

(* Execute one data-plane request against the registry, under an
   optional budget.  Returns (status, reason, data); every verb maps
   budget exhaustion to a sound [Partial] through the solvers' budgeted
   entry points.  Exceptions escape to the caller's catch-all. *)
let execute reg budget req =
  match req.Proto.verb with
  | Proto.Ping -> ok "{}"
  | Proto.Eval -> (
      let inst = find_inst reg req in
      let q = parse_query inst req in
      match
        Budget.run ?budget ~partial:(fun _ -> None) (fun () ->
            Qlang.Engine.eval ~dist:inst.Instance.dist inst.Instance.db q)
      with
      | Budget.Exact rel -> ok (json_of_relation rel)
      | Budget.Partial { reason; _ } -> partial reason "{\"answers\": null}")
  | Proto.Topk -> (
      let inst = find_inst reg req in
      let k = Option.value req.Proto.k ~default:1 in
      match Dispatch.topk_b ?budget inst ~k with
      | Budget.Exact None -> ok "{\"exists\": false, \"packages\": []}"
      | Budget.Exact (Some pkgs) ->
          ok
            (Printf.sprintf "{\"exists\": true, \"packages\": [%s]}"
               (String.concat ", " (List.map (json_of_package inst) pkgs)))
      | Budget.Partial { best_so_far; reason; _ } ->
          partial reason
            (Printf.sprintf "{\"best\": %s}"
               (match best_so_far with
               | None -> "null"
               | Some p -> json_of_package inst p)))
  | Proto.Count -> (
      let inst = find_inst reg req in
      let bound = Option.value req.Proto.bound ~default:0. in
      match Dispatch.count_b ?budget inst ~bound with
      | Budget.Exact n -> ok (Printf.sprintf "{\"count\": %d}" n)
      | Budget.Partial { best_so_far; reason; _ } ->
          partial reason
            (Printf.sprintf "{\"at_least\": %d}"
               (Option.value best_so_far ~default:0)))
  | Proto.Maxbound -> (
      let inst = find_inst reg req in
      let k = Option.value req.Proto.k ~default:1 in
      match Dispatch.max_bound_b ?budget inst ~k with
      | Budget.Exact (Some b) ->
          ok (Printf.sprintf "{\"bound\": %s}" (Proto.json_float b))
      | Budget.Exact None -> ok "{\"bound\": null}"
      | Budget.Partial { reason; _ } -> partial reason "{\"bound\": null}")
  | Proto.Rpp -> (
      let inst = find_inst reg req in
      let k = Option.value req.Proto.k ~default:1 in
      match Dispatch.topk_b ?budget inst ~k with
      | Budget.Exact None -> ok "{\"exists\": false, \"is_topk\": null}"
      | Budget.Exact (Some pkgs) -> (
          match Core.Rpp.is_topk_budgeted ?budget inst pkgs with
          | Budget.Exact b ->
              ok (Printf.sprintf "{\"exists\": true, \"is_topk\": %b}" b)
          | Budget.Partial { reason; _ } -> partial reason "{\"is_topk\": null}")
      | Budget.Partial { reason; _ } -> partial reason "{\"is_topk\": null}")
  | Proto.Paql -> (
      let inst = find_inst reg req in
      let text =
        match req.Proto.query with
        | Some t -> t
        | None -> raise (Bad_request "paql: missing q=")
      in
      let c =
        match Core.Paql_compile.parse_and_compile inst.Instance.db text with
        | Ok c -> c
        | Error e -> raise (Bad_request ("paql: " ^ e))
      in
      let json_of_answer (a : Core.Paql_compile.answer) =
        Printf.sprintf "{\"objective\": %s, \"package\": %s}"
          (Proto.json_float a.Core.Paql_compile.objective)
          (json_of_package c.Core.Paql_compile.inst
             a.Core.Paql_compile.package)
      in
      if req.Proto.approx then begin
        match Sketch.solve_budgeted ?budget c with
        | Budget.Exact o ->
            let s = o.Sketch.stats in
            ok
              (Printf.sprintf
                 "{\"approx\": true, \"winner\": \"%s\", \"partitions\": %d, \
                  \"partitions_touched\": %d, \"backtracks\": %d, \
                  \"answer\": %s}"
                 (Proto.json_escape s.Sketch.winner)
                 s.Sketch.npartitions s.Sketch.partitions_touched
                 s.Sketch.backtracks
                 (match o.Sketch.answer with
                 | None -> "null"
                 | Some a -> json_of_answer a))
        | Budget.Partial { best_so_far; reason; _ } ->
            partial reason
              (Printf.sprintf "{\"approx\": true, \"best\": %s}"
                 (match best_so_far with
                 | None -> "null"
                 | Some a -> json_of_answer a))
      end
      else
        match Core.Paql_compile.solve_budgeted ?budget c with
        | Budget.Exact None -> ok "{\"approx\": false, \"answer\": null}"
        | Budget.Exact (Some a) ->
            ok
              (Printf.sprintf "{\"approx\": false, \"answer\": %s}"
                 (json_of_answer a))
        | Budget.Partial { best_so_far; reason; _ } ->
            partial reason
              (Printf.sprintf "{\"approx\": false, \"best\": %s}"
                 (match best_so_far with
                 | None -> "null"
                 | Some a -> json_of_answer a)))
  | Proto.Analyze -> (
      let inst = find_inst reg req in
      let q = parse_query inst req in
      match
        Budget.run ?budget ~partial:(fun _ -> None) (fun () ->
            Analysis.Analyze.query ~db:inst.Instance.db q)
      with
      | Budget.Exact ds ->
          let errors =
            List.length (List.filter Analysis.Diagnostic.is_error ds)
          in
          let codes =
            List.map (fun d -> "\"" ^ d.Analysis.Diagnostic.code ^ "\"") ds
          in
          ok
            (Printf.sprintf
               "{\"ok\": %b, \"errors\": %d, \"total\": %d, \"codes\": [%s]}"
               (errors = 0) errors (List.length ds)
               (String.concat ", " codes))
      | Budget.Partial { reason; _ } -> partial reason "{\"codes\": null}")
  | Proto.Burn -> (
      let ms = Option.value req.Proto.burn_ms ~default:10 in
      let run () =
        let fin = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
        let acc = ref 0 in
        while Unix.gettimeofday () < fin do
          Budget.check ();
          for i = 0 to 999 do
            acc := !acc + i
          done
        done;
        !acc
      in
      match Budget.run ?budget ~partial:(fun _ -> None) run with
      | Budget.Exact _ -> ok (Printf.sprintf "{\"burned_ms\": %d}" ms)
      | Budget.Partial { reason; _ } -> partial reason "{\"burned_ms\": null}")
  | Proto.Metrics | Proto.Instances | Proto.Shutdown ->
      raise (Bad_request "control-plane verb on the data plane")

(* The degradation ladder's bottom rung: whatever escapes, the request
   resolves to a response and the daemon carries on. *)
let execute_caught reg budget req =
  try execute reg budget req with
  | Bad_request m -> (Proto.Error, Some m, "{}")
  | Fault.Injected site -> (Proto.Error, Some ("fault:" ^ site), "{}")
  | Budget.Exhausted r ->
      (Proto.Overloaded, Some (Budget.reason_to_string r), "{}")
  | Failure m -> (Proto.Error, Some m, "{}")
  | exn -> (Proto.Error, Some (Printexc.to_string exn), "{}")

(* ------------------------------------------------------------------ *)
(* Response delivery                                                   *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let bump_status st = function
  | Proto.Ok_ ->
      Atomic.incr st.s_ok;
      Observe.bump c_ok
  | Proto.Partial ->
      Atomic.incr st.s_partial;
      Observe.bump c_partial
  | Proto.Overloaded ->
      Atomic.incr st.s_shed;
      Observe.bump c_shed
  | Proto.Error ->
      Atomic.incr st.s_errors;
      Observe.bump c_errors

(* Write one response line under the connection's write lock.  The
   [serve.respond] probe fires before any byte is written, so a fault
   here replaces the whole line with an error response — the client
   never sees torn output.  A failed write marks the connection dead
   (counted as [dropped]); the request still resolved. *)
let deliver t conn ~id ~verb ~status ?reason ~ms ~data () =
  let status, reason, data =
    try
      Fault.hit "serve.respond";
      (status, reason, data)
    with
    | Fault.Injected site -> (Proto.Error, Some ("fault:" ^ site), "{}")
    | Budget.Exhausted r ->
        (Proto.Error, Some (Budget.reason_to_string r), "{}")
  in
  let line = Proto.response ~id ~verb ~status ?reason ~ms ~data () ^ "\n" in
  let written =
    Mutex.protect conn.wlock (fun () ->
        if conn.dead then false
        else
          try
            write_all conn.fd line 0 (String.length line);
            true
          with _ ->
            conn.dead <- true;
            false)
  in
  if written then bump_status t.st status else Atomic.incr t.st.s_dropped;
  status

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let effective_deadline t req =
  let clamp d =
    match t.config.max_deadline with Some m -> Float.min d m | None -> d
  in
  match (req.Proto.timeout, t.config.deadline) with
  | Some r, Some d -> Some (Float.min (clamp r) d)
  | Some r, None -> Some (clamp r)
  | None, d -> d

let emit_trace t ~req ~verb ~status ~queue_ms ~total_ms ~counters =
  match t.config.trace with
  | None -> ()
  | Some sink ->
      let line =
        Printf.sprintf
          "{\"serve_trace\": {\"id\": %d, \"verb\": \"%s\", \"status\": \
           \"%s\", \"queue_ms\": %.3f, \"total_ms\": %.3f, \"counters\": %s}}"
          req.Proto.id (Proto.json_escape verb)
          (Proto.status_to_string status)
          queue_ms total_ms counters
      in
      Mutex.protect t.tlock (fun () -> try sink line with _ -> ())

let process t item =
  let req = item.it_req and conn = item.it_conn in
  let verb = Proto.verb_to_string req.Proto.verb in
  let now = Unix.gettimeofday () in
  let queue_ms = (now -. item.it_arrival) *. 1000. in
  let dl = effective_deadline t req in
  let remaining = Option.map (fun d -> item.it_arrival +. d -. now) dl in
  let work () =
    match remaining with
    | Some r when r <= 0. ->
        (* Its deadline passed while it sat in the queue: shedding now is
           cheaper and more honest than starting doomed work. *)
        (Proto.Overloaded, Some "deadline_in_queue", "{}")
    | _ ->
        let budget =
          match (remaining, t.config.fuel) with
          | None, None -> None
          | r, fuel -> Some (Budget.make ?deadline:r ?fuel ())
        in
        (try
           Fault.hit "serve.dispatch";
           Observe.span t_exec (fun () -> execute_caught t.reg budget req)
         with
        | Fault.Injected site -> (Proto.Error, Some ("fault:" ^ site), "{}")
        | Budget.Exhausted r ->
            (Proto.Overloaded, Some (Budget.reason_to_string r), "{}"))
  in
  (* Under --trace-json each request's Observe events are captured on
     this domain, reported in its trace record, then absorbed into the
     global cells. *)
  let (status, reason, data), counters =
    if t.config.trace <> None && Observe.enabled () then begin
      let res, delta = Observe.capture work in
      let counters = Observe.to_json (Observe.delta_snapshot delta) in
      Observe.absorb delta;
      (res, counters)
    end
    else (work (), "{}")
  in
  let total_ms = (Unix.gettimeofday () -. item.it_arrival) *. 1000. in
  let status =
    deliver t conn ~id:req.Proto.id ~verb ~status ?reason ~ms:total_ms ~data ()
  in
  Atomic.decr conn.outstanding;
  emit_trace t ~req ~verb ~status ~queue_ms ~total_ms ~counters

let worker t =
  let rec loop () =
    match Bq.pop t.queue with
    | None -> ()
    | Some item ->
        (* The last line of defense: a request must never take a worker
           down.  [process] already resolves every expected failure; an
           escape here is accounted and the loop continues. *)
        (try process t item
         with _ ->
           Atomic.incr t.st.s_errors;
           Observe.bump c_errors);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Control plane and admission                                         *)
(* ------------------------------------------------------------------ *)

let metrics_data t =
  let server =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) (stats t))
  in
  Printf.sprintf "{\"server\": {%s}, \"queue\": %d, \"observe\": %s}" server
    (Bq.length t.queue)
    (Observe.to_json (Observe.snapshot ()))

let instances_data t =
  Printf.sprintf "{\"instances\": [%s]}"
    (String.concat ", "
       (List.map
          (fun (n, _) -> "\"" ^ Proto.json_escape n ^ "\"")
          (List.sort (fun (a, _) (b, _) -> String.compare a b) t.reg)))

let handle_line t conn line =
  if not (Proto.is_comment line) then begin
    Observe.bump c_requests;
    match Proto.parse_request line with
    | Error msg ->
        ignore
          (deliver t conn ~id:(-1) ~verb:"?" ~status:Proto.Error ~reason:msg
             ~ms:0. ~data:"{}" ())
    | Ok req -> (
        let verb = Proto.verb_to_string req.Proto.verb in
        let send status ?reason data =
          ignore (deliver t conn ~id:req.Proto.id ~verb ~status ?reason ~ms:0. ~data ())
        in
        match req.Proto.verb with
        | Proto.Ping -> send Proto.Ok_ "{}"
        | Proto.Metrics -> send Proto.Ok_ (metrics_data t)
        | Proto.Instances -> send Proto.Ok_ (instances_data t)
        | Proto.Shutdown ->
            send Proto.Ok_ "{\"stopping\": true}";
            Atomic.set t.stopping true
        | _ -> (
            (* Data plane: the accept probe models a fault in request
               intake (Injected -> per-request error; Exhaust -> shed),
               then admission control decides queue or refuse. *)
            let refused =
              try
                Fault.hit "serve.accept";
                None
              with
              | Fault.Injected site -> Some (Proto.Error, "fault:" ^ site)
              | Budget.Exhausted r ->
                  Some (Proto.Overloaded, Budget.reason_to_string r)
            in
            match refused with
            | Some (status, reason) -> send status ~reason "{}"
            | None ->
                Atomic.incr conn.outstanding;
                let item =
                  { it_conn = conn; it_req = req; it_arrival = Unix.gettimeofday () }
                in
                if Bq.try_push t.queue item then begin
                  Atomic.incr t.st.s_accepted;
                  Observe.bump c_accepted
                end
                else begin
                  Atomic.decr conn.outstanding;
                  send Proto.Overloaded ~reason:"queue_full" "{}"
                end))
  end

(* ------------------------------------------------------------------ *)
(* I/O loop                                                            *)
(* ------------------------------------------------------------------ *)

let accept_conn t lfd conns =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Atomic.incr t.st.s_conns;
      conns :=
        {
          fd;
          wlock = Mutex.create ();
          rbuf = Buffer.create 256;
          skipping = false;
          reof = false;
          outstanding = Atomic.make 0;
          dead = false;
        }
        :: !conns

let max_line_bytes = 1 lsl 20

(* An overlong line is refused once, as it crosses the cap, and its
   remaining bytes are dropped up to its newline; the connection then
   carries on.  The partial line never grows past the cap. *)
let refuse_long_line t conn =
  Buffer.reset conn.rbuf;
  Observe.bump c_requests;
  ignore
    (deliver t conn ~id:(-1) ~verb:"?" ~status:Proto.Error
       ~reason:"line_too_long" ~ms:0. ~data:"{}" ())

let read_conn t conn =
  let bytes = Bytes.create 4096 in
  match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (_, _, _) -> conn.reof <- true
  | 0 -> conn.reof <- true
  | n ->
      (* Only the bytes just read are scanned for newlines. *)
      let rec newline i =
        if i >= n then None else if Bytes.get bytes i = '\n' then Some i else newline (i + 1)
      in
      let take start stop =
        if not conn.skipping then begin
          Buffer.add_subbytes conn.rbuf bytes start (stop - start);
          if Buffer.length conn.rbuf > max_line_bytes then begin
            refuse_long_line t conn;
            conn.skipping <- true
          end
        end
      in
      let rec go start =
        match newline start with
        | None -> take start n
        | Some j ->
            take start j;
            if conn.skipping then conn.skipping <- false
            else begin
              let line = Buffer.contents conn.rbuf in
              Buffer.clear conn.rbuf;
              let len = String.length line in
              handle_line t conn
                (if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1)
                 else line)
            end;
            go (j + 1)
      in
      go 0

let listen_unix path =
  if Sys.file_exists path then (try Unix.unlink path with _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Server.bound_port: not a TCP socket"

let run t lfd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let ws = ref None in
  let conns = ref [] in
  let finally () =
    (try Unix.close lfd with _ -> ());
    Bq.close t.queue;
    Option.iter Parallel.Pool.join_workers !ws;
    List.iter (fun c -> try Unix.close c.fd with _ -> ()) !conns
  in
  match
    ws := Some (Parallel.Pool.spawn_workers ~domains:t.config.domains (fun _ -> worker t));
    while not (Atomic.get t.stopping) do
      (* Reap connections that are finished (EOF or dead) and drained. *)
      conns :=
        List.filter
          (fun c ->
            if (c.reof || c.dead) && Atomic.get c.outstanding = 0 then begin
              (try Unix.close c.fd with _ -> ());
              false
            end
            else true)
          !conns;
      let rfds =
        lfd :: List.filter_map (fun c -> if c.reof then None else Some c.fd) !conns
      in
      match Unix.select rfds [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              if fd = lfd then accept_conn t lfd conns
              else
                match List.find_opt (fun c -> c.fd = fd) !conns with
                | Some c -> read_conn t c
                | None -> ())
            ready
    done
  with
  | () -> finally ()
  | exception exn ->
      finally ();
      raise exn

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let one_shot t line =
  match Proto.parse_request line with
  | Error msg ->
      Proto.response ~id:(-1) ~verb:"?" ~status:Proto.Error ~reason:msg ~ms:0.
        ~data:"{}" ()
  | Ok req -> (
      let verb = Proto.verb_to_string req.Proto.verb in
      let resp status ?reason data =
        Proto.response ~id:req.Proto.id ~verb ~status ?reason ~ms:0. ~data ()
      in
      match req.Proto.verb with
      | Proto.Ping -> resp Proto.Ok_ "{}"
      | Proto.Metrics -> resp Proto.Ok_ (metrics_data t)
      | Proto.Instances -> resp Proto.Ok_ (instances_data t)
      | Proto.Shutdown -> resp Proto.Ok_ "{\"stopping\": true}"
      | _ ->
          let status, reason, data = execute_caught t.reg None req in
          resp status ?reason data)
