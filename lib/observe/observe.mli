(** Lightweight telemetry: named monotonic counters, timers and nestable
    spans, safe under OCaml 5 domains.

    Design constraints, in order:

    - {b Near-zero disabled cost.}  Every recording entry point checks a
      single [Atomic.get] on the global enable flag and returns before
      touching anything else.  Instrumented hot loops pay one atomic load
      (a plain read on x86/ARM acquire) per event when tracing is off.
    - {b Domain safety.}  Counter cells are [Atomic.t]; the registry is
      mutex-guarded; capture buffers are domain-local.  No lock is taken
      on the recording fast path.
    - {b Per-request accounting.}  The serving daemon runs many requests
      at once, one per worker domain.  Under [serve --trace-json] each
      request's events are recorded into a {!capture} buffer on its
      worker domain, reported in that request's record, then
      {!absorb}ed into the global cells, so one request's numbers never
      mix with another's. *)

type counter
type timer

(** {1 Global switch} *)

val enabled : unit -> bool
(** Current state of the global enable flag.  Initialised to [true] when
    the [PKG_TRACE] environment variable is set to [1], [true], [on] or
    [yes]; [false] otherwise. *)

val set_enabled : bool -> unit

(** {1 Registration}

    Registration is idempotent by name: both functions return the
    existing instrument when the name is already registered, and raise
    [Invalid_argument] if the name is registered as the other kind.
    Registration takes a lock — call at module-init time, not in hot
    loops. *)

val counter : string -> counter
val timer : string -> timer

(** {1 Recording} *)

val bump : counter -> unit
(** Add 1 when tracing is enabled; no-op otherwise. *)

val add : counter -> int -> unit
(** Add [n] when tracing is enabled; no-op otherwise. *)

val span : timer -> (unit -> 'a) -> 'a
(** Run the thunk, recording one entry and its wall-clock duration when
    tracing is enabled.  Spans nest freely (each records its own
    duration) and record even when the thunk raises. *)

(** {1 Per-request accounting} *)

type delta
(** A private buffer of recorded events, produced by {!capture}. *)

val capture : (unit -> 'a) -> 'a * delta
(** Run the thunk with all events recorded by the {e current domain}
    diverted into a fresh buffer instead of the global cells (or into
    the enclosing capture, if any — captures nest).  Returns the
    thunk's result together with the buffer.  The caller decides
    whether to {!absorb} or discard it.  When tracing is disabled the
    thunk runs untouched and the delta is empty. *)

val absorb : delta -> unit
(** Replay a captured buffer into the current sink: the enclosing
    capture if one is active on this domain, else the global cells.
    Absorbing records even if tracing has been disabled since the
    capture — the work already happened. *)

(** {1 Snapshots} *)

type value =
  | Count of int
  | Span of { entries : int; seconds : float }

type snapshot = (string * value) list
(** Instrument name to value, sorted by name. *)

val snapshot : unit -> snapshot

val delta_snapshot : delta -> snapshot
(** Render a captured buffer as a snapshot without absorbing it — the
    per-request accounting of the serving layer ([serve --trace-json]
    captures each request's events on its worker domain, reports them in
    that request's NDJSON record, then {!absorb}s them into the global
    cells). *)

val reset : unit -> unit
(** Zero every registered instrument. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff earlier later] is the per-instrument increase from [earlier]
    to [later].  Instruments new in [later] count from zero. *)

val nonzero : snapshot -> snapshot
(** Drop instruments with a zero count / no entries. *)

(** {1 Rendering} *)

val to_text : ?zeros:bool -> snapshot -> string
(** Human-readable report, instruments grouped by the name prefix up to
    the first ['.'].  [zeros] (default [false]) keeps zero-valued
    instruments. *)

val to_json : snapshot -> string
(** One JSON object: counters map to integers, timers to
    [{"entries": n, "seconds": s}]. *)
