(* serve-teams: a closed loop of two connections against the real
   [recommend serve --domains 1] daemon, loaded with generated team
   instance files.  Answers are checked byte for byte against
   [Serve.Server.one_shot] on an in-process registry built from the same
   files. *)

module I = Perfbench_inputs.Inputs
module M = Measure
module Client = Serve.Client
module Proto = Serve.Proto

(* ------------------------------------------------------------------ *)
(* The daemon process                                                   *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; out : string }

let live : daemon list ref = ref []

let scrubbed_env ~trace =
  let keep kv =
    not (String.length kv >= 4 && String.sub kv 0 4 = "PKG_")
  in
  let base = List.filter keep (Array.to_list (Unix.environment ())) in
  Array.of_list (if trace then "PKG_TRACE=1" :: base else base)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let can_connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* Spawn the daemon and return it with its set-up time: spawn until the
   instance files are loaded and prewarmed and the first [ping] is
   answered. *)
let spawn ~recommend ~work ~files ~trace tag =
  let sock = Filename.concat work (Printf.sprintf "d%d.sock" tag) in
  let out = Filename.concat work (Printf.sprintf "d%d.out" tag) in
  let loads = List.concat_map (fun (name, path) -> [ "--load"; name ^ "=" ^ path ]) files in
  let args =
    [ recommend; "serve"; "--socket"; sock; "--domains"; "1" ]
    @ loads
    @ if trace then [ "--trace-json" ] else []
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = M.now () in
  let pid =
    Unix.create_process_env recommend (Array.of_list args) (scrubbed_env ~trace)
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let d = { pid; sock; out } in
  live := d :: !live;
  let give_up = t0 +. 120. in
  while not (can_connect sock) do
    if not (alive pid) then failwith "serve-teams: daemon exited during set-up";
    if M.now () > give_up then failwith "serve-teams: daemon not ready after 120 s";
    (* kernel samples while the daemon loads, on its CPU (run.py keeps
       the daemon and this program on one) *)
    M.tick ();
    Unix.sleepf 0.001
  done;
  let c = Client.connect_unix sock in
  let pong = Client.request c "ping" in
  let setup = M.now () -. t0 in
  Client.close c;
  if Option.bind pong Proto.response_status <> Some "ok" then
    failwith "serve-teams: ping not answered";
  (d, setup)

let wait_exit pid =
  let give_up = M.now () +. 20. in
  let rec go () =
    if alive pid then
      if M.now () > give_up then begin
        (try Unix.kill pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else (Unix.sleepf 0.005; go ())
  in
  go ()

let shutdown d =
  (try
     let c = Client.connect_unix d.sock in
     ignore (Client.request c "shutdown");
     Client.close c
   with _ -> (try Unix.kill d.pid Sys.sigterm with _ -> ()));
  wait_exit d.pid;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with _ -> ());
      try ignore (Unix.waitpid [] d.pid) with _ -> ())
    !live;
  live := []

(* ------------------------------------------------------------------ *)
(* JSON field extraction (responses, metrics and trace records are      *)
(* printed by the daemon in a fixed shape)                              *)
(* ------------------------------------------------------------------ *)

let field_start line key =
  let pat = "\"" ^ key ^ "\": " in
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let number_at line i =
  let j = ref i in
  while
    !j < String.length line
    && (match line.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
  do
    incr j
  done;
  float_of_string (String.sub line i (!j - i))

let num line key = Option.map (number_at line) (field_start line key)

let num_or_zero line key = Option.value (num line key) ~default:0.

let str line key =
  Option.map
    (fun i -> String.sub line (i + 1) (String.index_from line (i + 1) '"' - i - 1))
    (field_start line key)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)
(* ------------------------------------------------------------------ *)

type op = {
  req : int;  (** index into [requests] *)
  t0 : float;
  t1 : float;
  server_ms : float;
  ok : bool;  (** status ok and data equal to the oracle's *)
}

let connections = 2
let warm_id = 900_000

(* Every distinct request once, untimed: the compatibility memos fill as
   they would in a daemon that has been serving for a while. *)
let warm_up d (inputs : I.serve) =
  let c = Client.connect_unix d.sock in
  Array.iteri
    (fun i line -> ignore (Client.request c (Printf.sprintf "%s id=%d" line (warm_id + i))))
    inputs.I.requests;
  Client.close c

let closed_loop d (inputs : I.serve) ~expected ~seconds =
  let seq = inputs.I.sequence in
  let per_conn = Array.make connections [] in
  let calib0 = !M.calib_s in
  let start = M.now () in
  let deadline = start +. seconds in
  let client k =
    let i = ref k in
    let ops = ref [] in
    let req () = seq.(!i mod Array.length seq) in
    let loop c =
      let connected = ref true in
      while !connected && M.now () < deadline do
        let req = req () in
        M.tick ();
        let t0 = M.now () in
        let resp =
          try Client.request c (Printf.sprintf "%s id=%d" inputs.I.requests.(req) !i)
          with Unix.Unix_error _ -> None
        in
        let t1 = M.now () in
        let op =
          match resp with
          | None ->
              (* the daemon closed the connection: a failed op, and the end
                 of this client's loop *)
              connected := false;
              { req; t0; t1; server_ms = 0.; ok = false }
          | Some line ->
              {
                req;
                t0;
                t1;
                server_ms = Option.value (Proto.response_ms line) ~default:0.;
                ok =
                  Proto.response_status line = Some "ok"
                  && Proto.response_data line = Some expected.(req);
              }
        in
        M.record ~name:"serve.request" ~op:!i ~start:t0 ~stop:t1;
        ops := op :: !ops;
        i := !i + connections
      done
    in
    (* any other failure, the connect included, is one more failed op and
       the end of this client's loop, never of the run *)
    (try
       let c = Client.connect_unix d.sock in
       Fun.protect ~finally:(fun () -> Client.close c) (fun () -> loop c)
     with _ ->
       let t = M.now () in
       ops := { req = req (); t0 = t; t1 = t; server_ms = 0.; ok = false } :: !ops);
    per_conn.(k) <- List.rev !ops
  in
  let threads = List.init connections (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  let ops = Array.of_list (List.concat (Array.to_list per_conn)) in
  let stop = Array.fold_left (fun acc o -> Float.max acc o.t1) start ops in
  (ops, { M.start; stop; calib_in = M.calib_since calib0 })

(* The daemon's own count of shed, error and partial answers; a daemon
   that no longer answers has already failed the ops that reached it. *)
let server_failed d =
  match
    let c = Client.connect_unix d.sock in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c "metrics")
  with
  | Some line -> num_or_zero line "shed" +. num_or_zero line "errors" +. num_or_zero line "partial"
  | None | (exception Unix.Unix_error _) -> 0.

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

let setup_repeats = 11

let run ~recommend ~work ~seed ~seconds ~trace =
  let inputs = I.serve ~seed in
  let files =
    List.map
      (fun (name, text) ->
        let path = Filename.concat work (name ^ ".inst") in
        Out_channel.with_open_text path (fun oc -> output_string oc text);
        (name, path))
      inputs.I.files
  in
  (* the oracle: the same files, in process, outside the timed phase *)
  let oracle =
    Serve.Server.create
      (List.map (fun (name, path) -> (name, Core.Instance_file.load path)) files)
  in
  let expected =
    Array.map
      (fun line ->
        match Proto.response_data (Serve.Server.one_shot oracle line) with
        | Some data -> data
        | None -> failwith ("serve-teams: oracle gave no data for " ^ line))
      inputs.I.requests
  in
  let notes =
    ref
      [
        Printf.sprintf "inputs digest %s (%d instance files, %d distinct requests)"
          (I.serve_digest inputs) (List.length files) (Array.length inputs.I.requests);
      ]
  in
  let note s = notes := s :: !notes in
  (* latencies and throughput at reference speed, and the wall-clock
     note behind them *)
  let summarize ops phase =
    let c = M.calibration () in
    let raw = Array.map (fun o -> (o.t1 -. o.t0) *. 1000.) ops in
    let lat = M.scaled c ~starts:(Array.map (fun o -> o.t0) ops) raw in
    let failed = Array.fold_left (fun n o -> if o.ok then n else n + 1) 0 ops in
    ( lat,
      failed,
      float_of_int (Array.length ops) /. M.scaled_wall c phase,
      M.raw_note c phase ~ops:(Array.length ops) raw )
  in
  if not trace then begin
    let setups = Array.make setup_repeats 0. and starts = Array.make setup_repeats 0. in
    let d = ref None in
    for r = 0 to setup_repeats - 1 do
      (* kernel samples around each spawn: the client waits while the
         daemon loads *)
      M.calibrate ();
      starts.(r) <- M.now ();
      let dd, s = spawn ~recommend ~work ~files ~trace:false r in
      M.calibrate ();
      setups.(r) <- s;
      if r < setup_repeats - 1 then shutdown dd else d := Some dd
    done;
    let d = Option.get !d in
    warm_up d inputs;
    let ops, phase = closed_loop d inputs ~expected ~seconds in
    let shed = server_failed d in
    let rss =
      (* a daemon that died mid-run has no VmHWM; its ops already failed *)
      try M.peak_rss_mb (string_of_int d.pid)
      with Failure _ | Sys_error _ ->
        note "daemon gone before the end of the run: peak_rss_mb unknown (0)";
        0.
    in
    shutdown d;
    let lat, failed, qps, raw_note = summarize ops phase in
    let n = Array.length ops in
    let c = M.calibration () in
    note (M.setup_note c ~starts setups);
    note (Printf.sprintf "latency samples %d; server-side shed+errors+partial %.0f" n shed);
    note raw_note;
    {
      Report.attempted = n;
      failed;
      e2e =
        [
          ("ops_per_s", qps);
          ("op_p50_ms", M.percentile ~what:"op latency" lat 50.);
          ("op_p90_ms", M.percentile ~what:"op latency" lat 90.);
          ("setup_s", M.median (M.scaled c ~starts setups));
          ("peak_rss_mb", rss);
          ("quality_ratio", float_of_int (n - failed) /. float_of_int n);
        ];
      layers = [];
      samples = [ ("op latency", n) ];
      notes = List.rev !notes;
    }
  end
  else begin
    let half = seconds /. 2. in
    (* untraced half: the reference for trace.overhead_ratio *)
    let d, _ = spawn ~recommend ~work ~files ~trace:false 0 in
    warm_up d inputs;
    let ops_a, phase_a = closed_loop d inputs ~expected ~seconds:half in
    shutdown d;
    (* traced half: client spans plus the daemon's --trace-json records *)
    let d, _ = spawn ~recommend ~work ~files ~trace:true 1 in
    warm_up d inputs;
    M.tracing := true;
    let ops, phase = closed_loop d inputs ~expected ~seconds:half in
    M.tracing := false;
    let shed = server_failed d in
    shutdown d;
    let _, failed_a, qps_a, _ = summarize ops_a phase_a in
    let _, failed_b, qps_b, _ = summarize ops phase in
    let records =
      In_channel.with_open_text d.out In_channel.input_lines
      |> List.filter (fun l ->
             field_start l "serve_trace" <> None
             && match num l "id" with Some id -> id < float_of_int warm_id | None -> false)
    in
    let sum key = List.fold_left (fun acc l -> acc +. num_or_zero l key) 0. records in
    let nrec = float_of_int (max 1 (List.length records)) in
    let wire = Array.map (fun o -> ((o.t1 -. o.t0) *. 1000.) -. o.server_ms) ops in
    let queue = Array.of_list (List.map (fun l -> num_or_zero l "queue_ms") records) in
    let exec verb =
      Array.of_list
        (List.filter_map
           (fun l ->
             if str l "verb" = Some verb then
               Some (num_or_zero l "total_ms" -. num_or_zero l "queue_ms")
             else None)
           records)
    in
    let hit = sum "memo.compat_hit" and miss = sum "memo.compat_miss" in
    let verbs = [ "topk"; "count"; "maxbound"; "rpp"; "eval"; "analyze" ] in
    let timings =
      [ ("serve.wire_ms", wire); ("serve.queue_ms", queue) ]
      @ List.map (fun v -> ("serve.exec_ms." ^ v, exec v)) verbs
    in
    note
      (Printf.sprintf "untraced half: %d ops, %d failed; traced half: %d ops, %d failed, %d trace records"
         (Array.length ops_a) failed_a (Array.length ops) failed_b (List.length records));
    {
      Report.attempted = Array.length ops_a + Array.length ops;
      failed = failed_a + failed_b;
      e2e = [];
      layers =
        Report.p50s timings
        @ [
            ("serve.failed", shed);
            ("core.oracle_nodes", sum "oracle.nodes" /. nrec);
            ("core.oracle_prunes", sum "oracle.prunes" /. nrec);
            ("core.compat_hit_ratio", if hit +. miss > 0. then hit /. (hit +. miss) else 0.);
            ("trace.overhead_ratio", qps_a /. qps_b);
          ];
      samples = List.map (fun (name, a) -> (name, Array.length a)) timings;
      notes = List.rev !notes;
    }
  end
