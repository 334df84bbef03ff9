(** The garbage collection rule (§7): locations not reachable from the
    configuration's value/expression, environment and continuation may be
    removed from the active store.

    A space-efficient computation (Definition 21) applies this rule
    whenever it is applicable, i.e. runs with a fully collected store.
    The machine achieves the same measured peaks lazily; see
    {!Machine}.

    Tracing is visitor-based, and each distinct environment base (see
    {!Env}) is traced once per collection, so each global binding is
    traced once. A full collection costs O(marked cells + frames +
    overlay bindings + distinct bases) plus a sweep over every cell of
    the store, independent of how many environments share the global
    bindings. That rests on two invariants: no prelude definition
    shadows a primitive (so prelude closures keep only prelude names in
    their overlays over the one primitive base), and collections never
    nest within a domain (so one reusable mark table per domain
    suffices; only pool worker domains run machines concurrently). A
    young-only collection (see {!world}) marks and sweeps only the
    cells allocated since the run started: the initial world's cells
    are neither traced nor swept. *)

type world
(** The old generation's root for one run: the run's initial
    environment, whose base must reach every cell below the store's
    first run location (see {!Store.start_run}), and a sticky bit set
    once a collection finds that base unreachable. *)

val world : Types.Env.t -> world
(** A fresh handle for one run. A handle for an environment whose
    overlay is not empty (a global defined after the machine was
    built) starts lost: its old cells need not all hang off the base. *)

val collect :
  ?world:world ->
  control_locs:Types.loc list ->
  env:Types.Env.t ->
  cont:Types.cont ->
  Store.t ->
  Store.t * int
(** Remove every location unreachable from the configuration; returns
    the collected store and the number of locations reclaimed.

    With [world], when the store has an old generation whose write
    barrier is clear (see {!Store}) and the world is not lost, the
    collection marks only young cells, noting old locations without
    entering them and not entering the world base, and sweeps only the
    young cells. If the trace met the world base that is exact: the
    world was closed and fully reachable from its base when the run
    started, no old cell has been written or freed since, so every old
    cell is live and none leads to a young one. Otherwise the same
    collection continues as a full one from the old locations it noted
    and marks the world lost, so every later collection of the run is
    full from the start. Without [world], or once the barrier has
    tripped, the collection is full. Either way the result is the one
    a full collection gives. *)

val occurs_in_retained :
  candidates:(Types.loc, unit) Hashtbl.t ->
  control_locs:Types.loc list ->
  env:Types.Env.t ->
  cont:Types.cont ->
  retained:Store.t ->
  (Types.loc, unit) Hashtbl.t
(** Support for the [I_stack] return rule's side condition: which of
    [candidates] occur (syntactically, one level deep per store cell)
    within the value, environment, continuation, or any retained store
    cell. [retained] must already exclude the cells being deleted.
    Candidates are assumed to be run-time allocations, so environment
    bases (prelude-time bindings) are not scanned, and while the write
    barrier is clear neither are the old cells of [retained] (an
    unwritten old cell names only old locations): the scan covers the
    cells at or above the run's first location. *)
