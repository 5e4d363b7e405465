(** Long-lived worker domains for the serving daemon.

    Package search runs on the calling domain; the only multicore surface
    of the repository is [recommend serve], which runs one request per
    worker domain over a shared queue. *)

type worker_set
(** A set of long-lived worker domains spawned by {!spawn_workers}. *)

val spawn_workers : domains:int -> (int -> unit) -> worker_set
(** [spawn_workers ~domains work] spawns [max 1 domains] fresh domains,
    each running [work i] to completion ([i] is the worker index).  The
    calling domain is {e not} one of the workers: a worker set serves an
    open-ended stream (each [work] typically loops over a shared queue
    until it is closed) while the caller keeps running its own loop.  A
    worker's uncaught exception is latched (first writer wins) and
    re-raised by {!join_workers}; the remaining workers keep running.
    Past the runtime's domain limit [Domain.spawn] raises [Failure]; the
    workers already spawned then run until their [work] returns, so
    callers bound [domains] first.

    Telemetry (see {!Observe}): [pool.domains_spawned]. *)

val join_workers : worker_set -> unit
(** Block until every worker returns, then re-raise the latched panic if
    any worker died of an uncaught exception. *)

val set_domains_override : int option -> unit
(** A no-op.  Package search no longer fans out over domains, so there is
    no domain count to override; the function stays only because the
    repository benchmark still calls it. *)
