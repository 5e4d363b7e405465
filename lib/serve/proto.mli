(** Wire protocol of the serving daemon.

    {b Requests} are newline-delimited text lines:

    {v <verb> [<key>=<value>]... v}

    Fields are space-separated; a value containing spaces, quotes,
    backslashes or [=] is written as an OCaml string literal
    (["%S"]-quoted).  Blank lines and lines starting with [#] are
    comments — servers and replay drivers skip them, which lets trace
    files carry annotations.

    Data-plane verbs (admitted through the bounded queue, executed on a
    worker domain under a per-request budget):

    - [eval inst=N [q=...] [datalog=true]] — evaluate a query (default:
      the instance's selection query) over the instance database.
    - [topk inst=N [k=K]] — FRP: top-k packages.
    - [count inst=N [bound=B]] — CPP: count packages rated ≥ B.
    - [maxbound inst=N [k=K]] — MBP: the best achievable bound.
    - [rpp inst=N [k=K]] — compute a top-k, then decide RPP on it.
    - [paql inst=N q=... [approx=true]] — run a PaQL package query over
      the instance's database (the [q] text is PaQL, not FO/Datalog);
      [approx=true] answers via SketchRefine instead of the exact
      pseudo-Boolean solver and reports the sketch statistics.
    - [analyze inst=N [q=...] [datalog=true]] — static diagnostics.
    - [burn ms=M] — debug: budget-checked busy work of M milliseconds,
      used by tests and the replay driver to provoke queueing, load
      shedding and deadline expiry deterministically.

    Control-plane verbs (answered inline by the I/O loop, never queued,
    so they stay responsive under overload):

    - [ping] — liveness probe.
    - [metrics] — server counters plus an {!Observe} snapshot.
    - [instances] — the loaded instance names.
    - [shutdown] — drain and stop the daemon.

    Common fields: [id=N] (client correlation id, echoed back) and
    [timeout=S] (per-request deadline in seconds, clamped to the
    server's maximum).

    {b Responses} are one JSON object per line:

    {v {"id": 7, "verb": "topk", "status": "ok", "ms": 1.234, "data": {...}} v}

    [status] is one of [ok] (exact answer), [partial] (budget ran out;
    [data] carries the sound partial payload and [reason] says which
    limit tripped), [overloaded] (shed before execution: [reason] is
    [queue_full], [deadline_in_queue], or a fault site), or [error]
    (named per-request failure; the connection stays usable).  The
    [data] field is by construction the {e last} field of the object,
    so clients can extract it without a JSON parser ({!response_data}). *)

type verb =
  | Ping
  | Eval
  | Topk
  | Count
  | Maxbound
  | Rpp
  | Paql
  | Analyze
  | Burn
  | Metrics
  | Instances
  | Shutdown

val verb_to_string : verb -> string
val verb_of_string : string -> verb option

val data_plane : verb -> bool
(** Whether the verb goes through admission control and a worker domain
    ([eval]..[burn]) rather than being answered inline. *)

type request = {
  id : int;  (** client correlation id; [-1] when the field was absent *)
  verb : verb;
  inst : string option;
  query : string option;
  datalog : bool;  (** parse [query] as a Datalog program, not FO *)
  k : int option;
  bound : float option;
  burn_ms : int option;
  timeout : float option;  (** per-request deadline, seconds *)
  approx : bool;  (** [paql]: answer via SketchRefine *)
}

val request :
  ?id:int ->
  ?inst:string ->
  ?query:string ->
  ?datalog:bool ->
  ?k:int ->
  ?bound:float ->
  ?burn_ms:int ->
  ?timeout:float ->
  ?approx:bool ->
  verb ->
  request

val parse_request : string -> (request, string) result
(** Parse one wire line.  [Error] carries a human-readable reason
    (unknown verb, unknown or malformed field, unterminated quote);
    servers answer it with a [status=error] response rather than
    dropping the connection. *)

val request_to_line : request -> string
(** Inverse of {!parse_request}: canonical field order, minimal quoting
    (control characters always quoted, so the line stays one line), and
    finite floats printed so that they parse back exactly. *)

val is_comment : string -> bool
(** Blank or [#]-prefixed: skipped by servers and replay drivers. *)

(** {1 Responses} *)

type status = Ok_ | Partial | Overloaded | Error

val status_to_string : status -> string

val response :
  id:int ->
  verb:string ->
  status:status ->
  ?reason:string ->
  ms:float ->
  data:string ->
  unit ->
  string
(** Build one response line (no trailing newline).  [data] must be a
    complete JSON value; it is emitted verbatim as the last field. *)

val json_escape : string -> string
val json_float : float -> string
(** Finite floats print bare; infinities and NaN print as JSON strings
    (["inf"], ["-inf"], ["nan"]) so the line stays parseable. *)

(** {1 Client-side extraction}

    Field extractors that rely on {!response}'s fixed field order
    instead of a JSON parser — enough for the replay driver and tests.
    Each returns [None] when the line does not look like a response. *)

val response_id : string -> int option
val response_status : string -> string option
val response_reason : string -> string option
val response_ms : string -> float option

val response_data : string -> string option
(** The raw [data] JSON text — the oracle cross-check compares these
    strings for equality, which is sound because both sides were
    printed by the same {!response} builder. *)
