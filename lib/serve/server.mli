(** The serving daemon: loads instances once, answers mixed
    FRP/CPP/RPP/analyze traffic over {!Proto}'s newline-delimited
    protocol, and schedules data-plane requests across
    [Parallel.Pool] worker domains.

    {b Admission control and degradation ladder.}  Each parsed request
    first passes the [serve.accept] fault probe, then admission: if the
    bounded queue is full, the request is shed with an [overloaded]
    response ([reason=queue_full]) — the daemon's answer under load is
    an explicit cheap refusal, never an unbounded backlog.  A worker
    that dequeues a request whose deadline already expired sheds it
    likewise ([reason=deadline_in_queue]).  Admitted requests run under
    a {!Robust.Budget} derived from the server deadline policy and the
    request's own [timeout] (whichever is tighter); exhaustion degrades
    to a sound [partial] answer through the solvers' budgeted entry
    points.  Any exception — including faults injected at
    [serve.accept], [serve.dispatch] or [serve.respond] — resolves to a
    named per-request [error] response: one poisoned request never
    crashes the daemon or corrupts shared state.

    {b Shared state.}  Loaded instances are immutable and their lazy
    caches (plan LRU, candidate/compat memos, relation fast paths) are
    concurrent-safe, so worker domains share them without copying.
    Package search itself runs on the worker's own domain. *)

type config = {
  domains : int;  (** worker domains executing data-plane requests *)
  queue_cap : int;  (** bounded-queue length; beyond it requests are shed *)
  deadline : float option;
      (** default per-request budget, seconds ([None] = none) *)
  max_deadline : float option;
      (** cap on client-supplied [timeout=] values *)
  fuel : int option;  (** optional per-request fuel bound *)
  trace : (string -> unit) option;
      (** per-request NDJSON trace sink ([serve --trace-json]) *)
}

val default_config : config
(** [domains = Domain.recommended_domain_count ()] (at most 127),
    [queue_cap = 64], no deadlines, no fuel, no trace. *)

val max_line_bytes : int
(** Longest request line the daemon reads (1 MiB, the newline
    excluded).  A longer line is answered with an [error] response whose
    reason is [line_too_long] (id [-1]) as soon as it crosses the cap;
    the rest of it is discarded unread up to its newline, and the
    connection keeps being served.  A client that never sends a newline
    thus holds at most this many bytes of daemon memory. *)

type t

val create : ?config:config -> (string * Core.Instance.t) list -> t
(** [create instances] — the registry maps wire names ([inst=NAME]) to
    loaded instances; each is {!Core.Instance.prewarm}ed so first
    requests hit warm caches.  [config.domains] and [config.queue_cap]
    are raised to at least 1.  Raises [Invalid_argument] on duplicate
    names, and when [config.domains] exceeds 127 (the runtime allows 128
    domains, the calling one included); both are checked before any
    instance is prewarmed or any domain started. *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a unix-domain socket path (unlinking any stale
    socket file first). *)

val listen_tcp : int -> Unix.file_descr
(** Bind and listen on 127.0.0.1:port ([SO_REUSEADDR] set).  Returns
    the listening descriptor; with port [0] the kernel picks a free
    port — recover it with {!bound_port}. *)

val bound_port : Unix.file_descr -> int

val run : t -> Unix.file_descr -> unit
(** Serve until a [shutdown] request (or {!stop}): accept connections,
    parse request lines, answer control-plane verbs inline, queue
    data-plane verbs to the worker domains.  Closes the listening
    descriptor, drains the queue, joins the workers and closes every
    connection before returning.  Ignores [SIGPIPE]. *)

val stop : t -> unit
(** Ask a concurrently running {!run} to shut down (drain semantics as
    for the [shutdown] verb).  Safe from any domain or signal
    handler. *)

val one_shot : t -> string -> string
(** The oracle: parse and execute one request line synchronously,
    unbudgeted and without admission control — exactly the answer the
    one-shot CLI would give.  The replay driver cross-checks every
    served [ok] answer against this ([ms] differs; [data] must be
    byte-identical). *)

val stats : t -> (string * int) list
(** Monotonic server counters, sorted by name: [accepted], [ok],
    [partial], [shed], [errors], [dropped] (responses whose connection
    died before the write), [conns] (connections accepted). *)
