(* Tests for the serving daemon: protocol round trips, end-to-end
   service over a unix socket against the one-shot oracle, admission
   control and load shedding, deadline degradation, fault injection at
   the serve.* sites, per-request trace records, and the mixed-workload
   equivalence property (served over N domains = sequential one-shot). *)

module Proto = Serve.Proto
module Server = Serve.Server
module Client = Serve.Client
module Fault = Robust.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- infrastructure ---------- *)

let team_reg () = [ ("team", Workload.Teams.team_instance ()) ]

let with_server ?config ?(reg = team_reg ()) f =
  let srv = Server.create ?config reg in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pkg-serve-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let lfd = Server.listen_unix path in
  let d = Domain.spawn (fun () -> Server.run srv lfd) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d;
      try Sys.remove path with _ -> ())
    (fun () -> f srv path)

(* Pipeline [lines] to the server, read as many responses back, and
   return them keyed by id. *)
let round_trip path lines =
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iter (Client.send_line c) lines;
      let n = List.length (List.filter (fun l -> not (Proto.is_comment l)) lines) in
      let tbl = Hashtbl.create 16 in
      for _ = 1 to n do
        match Client.recv_line c with
        | None -> Alcotest.fail "server closed the connection mid-batch"
        | Some resp -> (
            match Proto.response_id resp with
            | None -> Alcotest.failf "unparseable response: %s" resp
            | Some id -> Hashtbl.replace tbl id resp)
      done;
      tbl)

let status_of resp = Option.value (Proto.response_status resp) ~default:"?"
let data_of resp = Option.value (Proto.response_data resp) ~default:"?"

(* ---------- protocol ---------- *)

let test_proto_round_trip () =
  let reqs =
    [
      Proto.request ~id:1 Proto.Ping;
      Proto.request ~id:2 ~inst:"team" Proto.Eval;
      Proto.request ~id:3 ~inst:"team"
        ~query:"Q(x) := exists s, c, v. expert(x, s, c, v) & s = \"backend\""
        Proto.Eval;
      Proto.request ~id:4 ~inst:"team" ~k:3 ~timeout:0.5 Proto.Topk;
      Proto.request ~id:5 ~inst:"team" ~bound:8.5 Proto.Count;
      Proto.request ~inst:"weird name\twith\\quotes\"" Proto.Analyze;
      Proto.request ~id:7 ~burn_ms:25 Proto.Burn;
      Proto.request ~id:8 ~inst:"team" ~query:"T(x) :- E(x)." ~datalog:true
        Proto.Eval;
      Proto.request ~id:9 ~inst:"team"
        ~query:"SELECT PACKAGE(P) FROM expert SUCH THAT SUM(salary) <= 300"
        ~approx:true Proto.Paql;
    ]
  in
  List.iter
    (fun r ->
      match Proto.parse_request (Proto.request_to_line r) with
      | Ok r' ->
          check ("round trip: " ^ Proto.request_to_line r) true (r = r')
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    reqs

(* Random requests survive the wire: any verb, an absent or non-negative
   id, finite floats of any magnitude (the shortest exact rendering is
   needed past six digits), and strings mixing quotes, backslashes, tabs,
   newlines, [=] and spaces with plain text. *)
let arb_request =
  let open QCheck.Gen in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\t'; '\n'; '\r'; '='; '#' ]) (int_range 0 8)
  in
  let finite =
    oneof
      [
        float_range (-1e6) 1e6;
        map float_of_int small_signed_int;
        float_bound_inclusive 1e-3;
        float_range (-1e300) 1e300;
      ]
  in
  let verb =
    oneofl
      Proto.
        [ Ping; Eval; Topk; Count; Maxbound; Rpp; Paql; Analyze; Burn; Metrics; Instances; Shutdown ]
  in
  QCheck.make ~print:Proto.request_to_line
    (verb >>= fun verb ->
     oneof [ return (-1); nat ] >>= fun id ->
     opt text >>= fun inst ->
     opt text >>= fun query ->
     bool >>= fun datalog ->
     opt small_signed_int >>= fun k ->
     opt finite >>= fun bound ->
     opt nat >>= fun burn_ms ->
     opt finite >>= fun timeout ->
     bool >|= fun approx ->
     Proto.request ~id ?inst ?query ~datalog ?k ?bound ?burn_ms ?timeout ~approx verb)

let prop_proto_round_trip =
  QCheck.Test.make ~name:"random request: parse (to_line r) = r" ~count:2000
    arb_request (fun r ->
      let line = Proto.request_to_line r in
      (not (String.contains line '\n'))
      && Proto.parse_request line = Ok r)

let test_proto_errors () =
  let bad l =
    match Proto.parse_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should reject: %s" l
  in
  bad "";
  bad "frobnicate id=1";
  bad "eval inst=\"unterminated";
  bad "eval k=notanint";
  bad "eval timeout=nan=3";
  bad "eval unknownfield=1";
  bad "eval naked-token"

let test_response_extractors () =
  let line =
    Proto.response ~id:42 ~verb:"topk" ~status:Proto.Partial ~reason:"deadline"
      ~ms:12.5 ~data:"{\"best\": null}" ()
  in
  check_int "id" 42 (Option.get (Proto.response_id line));
  check_str "status" "partial" (Option.get (Proto.response_status line));
  check_str "reason" "deadline" (Option.get (Proto.response_reason line));
  check_str "data" "{\"best\": null}" (Option.get (Proto.response_data line));
  check "ms" true (Option.get (Proto.response_ms line) = 12.5)

(* ---------- end to end vs the oracle ---------- *)

let mixed_lines =
  [
    "ping id=1";
    "eval id=2 inst=team";
    "topk id=3 inst=team k=2";
    "count id=4 inst=team bound=8";
    "maxbound id=5 inst=team k=1";
    "rpp id=6 inst=team k=1";
    "analyze id=7 inst=team";
    "eval id=8 inst=team q=\"Q(a, b) := conflict(a, b)\"";
    "topk id=9 inst=team k=3";
    "count id=10 inst=team bound=25";
    "paql id=11 inst=team q=\"SELECT PACKAGE(P) FROM expert SUCH THAT \
     SUM(salary) <= 300 AND COUNT(*) <= 3 MAXIMIZE SUM(score)\"";
    "paql id=12 inst=team approx=true q=\"SELECT PACKAGE(P) FROM expert \
     SUCH THAT SUM(salary) <= 300 AND COUNT(*) <= 3 MAXIMIZE SUM(score)\"";
  ]

let test_end_to_end_oracle () =
  with_server (fun srv path ->
      let responses = round_trip path mixed_lines in
      List.iter
        (fun line ->
          let oracle = Server.one_shot srv line in
          let id = Option.get (Proto.response_id oracle) in
          match Hashtbl.find_opt responses id with
          | None -> Alcotest.failf "no response for id %d" id
          | Some served ->
              check_str
                (Printf.sprintf "status (id %d)" id)
                (status_of oracle) (status_of served);
              check_str
                (Printf.sprintf "data (id %d)" id)
                (data_of oracle) (data_of served))
        mixed_lines)

let test_per_request_errors () =
  with_server (fun _srv path ->
      let responses =
        round_trip path
          [
            "eval id=1";  (* missing inst *)
            "eval id=2 inst=nosuch";
            "eval id=3 inst=team q=\"Q(x) := nonsense(((\"";
            "metrics id=4";  (* fine: control verb *)
            "eval id=5 inst=team";  (* daemon still healthy *)
          ]
      in
      check_str "missing inst" "error" (status_of (Hashtbl.find responses 1));
      check_str "unknown inst" "error" (status_of (Hashtbl.find responses 2));
      check_str "parse error" "error" (status_of (Hashtbl.find responses 3));
      check_str "metrics ok" "ok" (status_of (Hashtbl.find responses 4));
      check_str "healthy after errors" "ok" (status_of (Hashtbl.find responses 5)))

(* A client that sends 2 MiB without a newline is refused with
   [line_too_long] while its line is still open; other connections keep
   being served, and the hog's connection resumes after its newline. *)
let test_line_too_long () =
  with_server (fun _srv path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          (* a daemon that never answers fails the test instead of hanging it *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let chunk = Bytes.make 65536 'x' in
          for _ = 1 to 2 * 1024 * 1024 / Bytes.length chunk do
            ignore (Unix.write fd chunk 0 (Bytes.length chunk))
          done;
          let ic = Unix.in_channel_of_descr fd in
          let resp = input_line ic in
          check_str "refused" "error" (status_of resp);
          check "reason line_too_long" true
            (Proto.response_reason resp = Some "line_too_long");
          let others = round_trip path [ "ping id=1"; "eval id=2 inst=team" ] in
          check_str "others: ping" "ok" (status_of (Hashtbl.find others 1));
          check_str "others: eval" "ok" (status_of (Hashtbl.find others 2));
          let rest = Bytes.of_string "still the long line\nping id=3\n" in
          ignore (Unix.write fd rest 0 (Bytes.length rest));
          let resp = input_line ic in
          check_str "the hog's next line is served" "ok" (status_of resp);
          check "it is the ping" true (Proto.response_id resp = Some 3)))

(* ---------- admission control and degradation ---------- *)

let test_queue_full_shed () =
  (* one slow worker, a queue of one: a burst of burns must shed with
     an explicit overloaded/queue_full refusal, and every request must
     still get exactly one response. *)
  let config =
    { Server.default_config with domains = 1; queue_cap = 1; trace = None }
  in
  with_server ~config (fun _srv path ->
      let lines =
        List.init 8 (fun i -> Printf.sprintf "burn id=%d ms=40" (i + 1))
      in
      let responses = round_trip path lines in
      check_int "every request answered" 8 (Hashtbl.length responses);
      let count st =
        Hashtbl.fold
          (fun _ r acc -> if status_of r = st then acc + 1 else acc)
          responses 0
      in
      check "some ok" true (count "ok" >= 1);
      let shed =
        Hashtbl.fold
          (fun _ r acc ->
            if
              status_of r = "overloaded"
              && Proto.response_reason r = Some "queue_full"
            then acc + 1
            else acc)
          responses 0
      in
      check "burst shed with queue_full" true (shed >= 1))

let test_deadline_degradation () =
  (* a tight server deadline turns long burns into sound partial
     answers, and requests stuck behind them into deadline_in_queue
     sheds — never a hang, never a crash. *)
  let config =
    {
      Server.default_config with
      domains = 1;
      queue_cap = 64;
      deadline = Some 0.08;
    }
  in
  with_server ~config (fun _srv path ->
      let lines =
        List.init 4 (fun i -> Printf.sprintf "burn id=%d ms=300" (i + 1))
      in
      let responses = round_trip path lines in
      check_int "every request answered" 4 (Hashtbl.length responses);
      let statuses =
        Hashtbl.fold (fun _ r acc -> status_of r :: acc) responses []
      in
      check "first burn degrades to partial" true
        (List.mem "partial" statuses);
      let dq =
        Hashtbl.fold
          (fun _ r acc ->
            if Proto.response_reason r = Some "deadline_in_queue" then acc + 1
            else acc)
          responses 0
      in
      check "later burns shed in queue" true (dq >= 1);
      (* client timeout= tighter than the server default also degrades *)
      let r2 = round_trip path [ "burn id=9 ms=300 timeout=0.03" ] in
      check_str "client timeout degrades" "partial"
        (status_of (Hashtbl.find r2 9)))

(* ---------- fault injection at the serve sites ---------- *)

let serve_sites = [ "serve.accept"; "serve.dispatch"; "serve.respond" ]

let test_fault_sites () =
  List.iter
    (fun site ->
      List.iter
        (fun kind ->
          with_server (fun _srv path ->
              Fault.arm ~site ~nth:1 ~kind;
              Fun.protect ~finally:Fault.disarm (fun () ->
                  let responses =
                    round_trip path
                      [ "eval id=1 inst=team"; "eval id=2 inst=team" ]
                  in
                  check_int
                    (site ^ ": both requests answered")
                    2 (Hashtbl.length responses);
                  (* exactly one request absorbed the fault; the fault
                     response names the site, and the daemon answered
                     the other request exactly *)
                  let faulted =
                    Hashtbl.fold
                      (fun _ r acc ->
                        match Proto.response_reason r with
                        | Some reason
                          when reason = "fault:" ^ site ->
                            r :: acc
                        | _ -> acc)
                      responses []
                  in
                  check_int (site ^ ": one fault response") 1
                    (List.length faulted);
                  let expected_status =
                    match kind with
                    | Fault.Exn -> "error"
                    | Fault.Exhaust -> (
                        (* exhaustion inside a budgeted region degrades
                           to partial; at accept/dispatch it sheds *)
                        match site with
                        | "serve.respond" -> "error"
                        | _ -> "overloaded")
                  in
                  check_str
                    (site ^ ": fault status")
                    expected_status
                    (status_of (List.hd faulted));
                  let ok =
                    Hashtbl.fold
                      (fun _ r acc ->
                        if status_of r = "ok" then acc + 1 else acc)
                      responses 0
                  in
                  check_int (site ^ ": other request exact") 1 ok)))
        [ Fault.Exn; Fault.Exhaust ])
    serve_sites

(* ---------- per-request trace records ---------- *)

let test_trace_sink () =
  let records = ref [] in
  let rlock = Mutex.create () in
  let was_enabled = Observe.enabled () in
  Observe.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Observe.set_enabled was_enabled)
    (fun () ->
      let config =
        {
          Server.default_config with
          domains = 2;
          trace =
            Some
              (fun line ->
                Mutex.protect rlock (fun () -> records := line :: !records));
        }
      in
      with_server ~config (fun _srv path ->
          let responses =
            round_trip path [ "eval id=1 inst=team"; "topk id=2 inst=team k=1" ]
          in
          check_int "both answered" 2 (Hashtbl.length responses));
      let records = !records in
      check_int "one record per data-plane request" 2 (List.length records);
      List.iter
        (fun r ->
          check "record is serve_trace" true
            (String.length r > 16 && String.sub r 0 16 = "{\"serve_trace\": ");
          let has needle =
            let n = String.length needle and h = String.length r in
            let rec go i =
              i + n <= h && (String.sub r i n = needle || go (i + 1))
            in
            go 0
          in
          check "has status" true (has "\"status\": \"ok\"");
          check "has stage timings" true
            (has "\"queue_ms\": " && has "\"total_ms\": ");
          check "has counter deltas" true (has "\"counters\": {"))
        records)

(* ---------- mixed-workload equivalence property ---------- *)

(* Generator of one random data-plane request line (id assigned by the
   caller).  Queries stay within the team schema so answers are
   nontrivial but cheap. *)
let gen_request =
  QCheck.Gen.(
    oneof
      [
        return (fun id -> Printf.sprintf "eval id=%d inst=team" id);
        map
          (fun k id -> Printf.sprintf "topk id=%d inst=team k=%d" id k)
          (int_range 1 3);
        map
          (fun b id -> Printf.sprintf "count id=%d inst=team bound=%d" id b)
          (int_range 0 30);
        map
          (fun k id -> Printf.sprintf "maxbound id=%d inst=team k=%d" id k)
          (int_range 1 2);
        map
          (fun k id -> Printf.sprintf "rpp id=%d inst=team k=%d" id k)
          (int_range 1 2);
        return (fun id -> Printf.sprintf "analyze id=%d inst=team" id);
        map
          (fun sel id ->
            Printf.sprintf "eval id=%d inst=team q=\"%s\"" id
              (if sel then "Q(a, b) := conflict(a, b)"
               else "Q(n) := exists s, c, v. expert(n, s, c, v) & c < 105"))
          bool;
      ])

let gen_workload =
  QCheck.Gen.(
    list_size (int_range 4 16) gen_request
    >>= fun fs ->
    int_range 1 3 >>= fun domains ->
    return (List.mapi (fun i f -> f (i + 1)) fs, domains))

let arb_workload =
  QCheck.make
    ~print:(fun (lines, domains) ->
      Printf.sprintf "domains=%d\n%s" domains (String.concat "\n" lines))
    gen_workload

(* Served over N racing domains, a mixed workload returns answer for
   answer the results of sequential one-shot dispatch. *)
let prop_served_equals_oneshot =
  QCheck.Test.make ~name:"serve: N-domain service = sequential one-shot"
    ~count:15 arb_workload (fun (lines, domains) ->
      let config = { Server.default_config with domains } in
      with_server ~config (fun srv path ->
          let responses = round_trip path lines in
          List.for_all
            (fun line ->
              let oracle = Server.one_shot srv line in
              let id = Option.get (Proto.response_id oracle) in
              match Hashtbl.find_opt responses id with
              | None -> false
              | Some served ->
                  status_of served = status_of oracle
                  && data_of served = data_of oracle)
            lines))

(* Same property under an injected fault at each serve site: exactly
   one request absorbs the fault (error or shed, naming the site), the
   daemon keeps serving, and every other answer still matches the
   oracle. *)
let prop_served_fault_resolves =
  QCheck.Test.make
    ~name:"serve: faulted request resolves, others match one-shot" ~count:9
    arb_workload (fun (lines, domains) ->
      List.for_all
        (fun site ->
          let config = { Server.default_config with domains } in
          with_server ~config (fun srv path ->
              (* oracle answers before arming: one_shot must stay clean *)
              let oracles =
                List.map
                  (fun line ->
                    let o = Server.one_shot srv line in
                    (Option.get (Proto.response_id o), o))
                  lines
              in
              Fault.arm ~site ~nth:1 ~kind:Fault.Exn;
              Fun.protect ~finally:Fault.disarm (fun () ->
                  let responses = round_trip path lines in
                  Hashtbl.length responses = List.length lines
                  && List.for_all
                       (fun (id, oracle) ->
                         match Hashtbl.find_opt responses id with
                         | None -> false
                         | Some served ->
                             (Proto.response_reason served
                             = Some ("fault:" ^ site))
                             || status_of served = status_of oracle
                                && data_of served = data_of oracle)
                       oracles
                  && Hashtbl.fold
                       (fun _ r acc ->
                         if Proto.response_reason r = Some ("fault:" ^ site)
                         then acc + 1
                         else acc)
                       responses 0
                     = 1)))
        serve_sites)

(* ---------- registration ---------- *)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "request round trip" `Quick test_proto_round_trip;
          Alcotest.test_case "parse errors" `Quick test_proto_errors;
          Alcotest.test_case "response extractors" `Quick
            test_response_extractors;
          QCheck_alcotest.to_alcotest prop_proto_round_trip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "mixed verbs match one-shot oracle" `Quick
            test_end_to_end_oracle;
          Alcotest.test_case "per-request errors are contained" `Quick
            test_per_request_errors;
          Alcotest.test_case "overlong line refused, daemon keeps serving" `Quick
            test_line_too_long;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "full queue sheds with queue_full" `Quick
            test_queue_full_shed;
          Alcotest.test_case "deadlines degrade and shed" `Quick
            test_deadline_degradation;
        ] );
      ( "faults",
        [
          Alcotest.test_case "serve.* sites resolve per request" `Quick
            test_fault_sites;
        ] );
      ( "trace",
        [
          Alcotest.test_case "NDJSON record per request" `Quick test_trace_sink;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_served_equals_oneshot; prop_served_fault_resolves ] );
    ]
