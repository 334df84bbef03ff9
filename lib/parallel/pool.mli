(** A Domain-based worker pool for parallel measurement sweeps.

    The reference machines are pure over a persistent store, so sweep
    points are embarrassingly parallel; the only shared mutable state is
    at the edges (telemetry handles), which the harness keeps per-task.
    This pool is the one concurrency primitive in the system: a fixed
    set of worker domains draining a [Mutex]/[Condition] work queue.

    Determinism contract: {!map} returns results in submission order, so
    a parallel map is observationally identical to [List.map] whenever
    the task function is pure per item — which is what makes
    [--jobs N] tables byte-identical to [--jobs 1]. *)

type t

val create : ?jobs:int -> unit -> t
(** Spawn [jobs] worker domains (default
    [max 1 (Domain.recommended_domain_count () - 1)], leaving one core
    for the submitting domain; clamped to at least 1). The pool must
    eventually be {!shutdown} (or use {!with_pool}). *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?pool f xs] applies [f] to every element, returning results in
    submission order. Without a [pool] this is exactly [List.map f xs]
    in the calling domain. With a pool, items are queued and the caller
    blocks until all complete. If any task raises, the batch is
    poisoned: items of the {e same batch} that have not started yet are
    discarded without running (in-flight items finish), and then the
    exception of the {e earliest} failed item (by submission index) is
    re-raised with its backtrace. The workers survive a poisoned batch
    and the pool stays usable for subsequent batches.

    Do not call [map] on the same pool from within one of its own tasks:
    the waiting task occupies a worker and the pool can deadlock. The
    harness only maps over leaf-level measurement tasks. *)

val shutdown : t -> unit
(** Finish the queued tasks, then join every worker domain. Idempotent. *)

val with_pool : ?jobs:int -> (t option -> 'a) -> 'a
(** [with_pool ~jobs f]: when [jobs <= 1] runs [f None] (serial path,
    no domains spawned); otherwise creates a pool, runs [f (Some pool)],
    and shuts the pool down even if [f] raises. [jobs] defaults as in
    {!create}. *)
