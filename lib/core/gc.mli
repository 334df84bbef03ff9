(** The garbage collection rule (§7): locations not reachable from the
    configuration's value/expression, environment and continuation may be
    removed from the active store.

    A space-efficient computation (Definition 21) applies this rule
    whenever it is applicable, i.e. runs with a fully collected store.
    The machine achieves the same measured peaks lazily; see
    {!Machine}.

    Tracing is visitor-based, and each distinct environment base (see
    {!Env}) is traced once per collection, so each global binding is
    traced once. That rests on two invariants: no prelude definition
    shadows a primitive (so prelude closures keep only prelude names in
    their overlays over the one primitive base), and collections never
    nest within a domain (so one reusable mark table per domain
    suffices; only pool worker domains run machines concurrently). A
    young-only collection (see {!world}) marks and sweeps only the
    cells allocated since the run started: the initial world's cells
    are neither traced nor swept.

    {b Cost.} A collection through a {!history} costs O(frames above
    the watermark + cells reached from them and from the registers +
    cells allocated since the previous collection + cells recorded above
    the watermark + changes since the previous collection + distinct
    bases), plus a walk down the continuation to the watermark; the
    sweep is skipped when every young cell is marked. The watermark is
    the deepest frame depth at which the continuation is physically the
    one the previous collection recorded, lowered below every recorded
    depth a write or removal since has touched, so a growing stack costs
    each collection only its new frames. A first collection, and every
    collection without a history, has watermark 0: O(marked cells +
    frames + overlay bindings + distinct bases) plus a sweep over every
    cell at or above the first traced location. *)

type world
(** The old generation's root for one run: the run's initial
    environment, whose base must reach every cell below the store's
    first run location (see {!Store.start_run}), and a sticky bit set
    once a collection finds that base unreachable. *)

val world : Types.Env.t -> world
(** A fresh handle for one run. A handle for an environment whose
    overlay is not empty (a global defined after the machine was
    built) starts lost: its old cells need not all hang off the base. *)

type history
(** One run's collection history: the frames and cells its previous
    collection recorded (kept in per-domain buffers, whose marks belong
    to one history at a time). Successive collections through one handle
    trace and sweep only what can have changed since the previous one. *)

val history : unit -> history
(** A fresh handle: its first collection starts an empty record. *)

val collect :
  ?world:world ->
  ?history:history ->
  ?value:Types.value ->
  env:Types.Env.t ->
  cont:Types.cont ->
  Store.t ->
  Store.t * int
(** Remove every location unreachable from the configuration — its
    control [value] (absent when the control is an expression), [env]
    and [cont] — and return the collected store and the number of
    locations reclaimed. The value is traced as a frame is, each
    environment base once.

    With [world], when the store has an old generation whose write
    barrier is clear (see {!Store}) and the world is not lost, the
    collection marks only young cells, noting old locations without
    entering them and not entering the world base, and sweeps only the
    young cells. If the trace met the world base that is exact: the
    world was closed and fully reachable from its base when the run
    started, no old cell has been written or freed since, so every old
    cell is live and none leads to a young one. Otherwise the same
    collection starts again as a full one and marks the world lost, so
    every later collection of the run is full from the start. Without
    [world], or once the barrier has tripped, the collection is full.

    With [history], cells the previous collection through it reached
    from frames below the watermark count as live without being
    visited, and only the cells allocated since, the cells recorded
    above the watermark and the previous register-only cells are swept.
    A store that does not derive from the previous collection's result
    (its epoch differs, see {!Store.epoch}), a switch between young-only
    and full, or another history's collection on the same domain in
    between make the collection start an empty record.

    Either way the result is the one a full collection gives. *)

val occurs_in_retained :
  candidates:(Types.loc, unit) Hashtbl.t ->
  value:Types.value ->
  retained:Store.t ->
  (Types.loc, unit) Hashtbl.t
(** Support for the [I_stack] return rule's side condition: which of
    [candidates] occur (syntactically, one level deep per store cell)
    within the control [value], or any retained store cell. [retained]
    must already exclude the cells being deleted. The environment and continuation of the retained
    configuration are not scanned: the rule's frame environment and the
    continuation below the frame were built before the call allocated
    the candidates, so they cannot name one. Nor is every cell: an
    unwritten cell names only locations older than itself, so only the
    cells at or above the first candidate and the written ones
    ({!Store.fold_written}) are scanned. Environment bases (built before
    the run) are not scanned either. O(cells allocated since the first
    candidate + written cells). *)
