(** The garbage collection rule (§7): locations not reachable from the
    configuration's value/expression, environment and continuation may be
    removed from the active store.

    A space-efficient computation (Definition 21) applies this rule
    whenever it is applicable, i.e. runs with a fully collected store.
    The machine achieves the same measured peaks lazily; see
    {!Machine}.

    Tracing is visitor-based, and each distinct environment base (see
    {!Env}) is traced once per collection, so each global binding is
    traced once and a collection costs O(marked cells + frames + overlay
    bindings + distinct bases) plus the sweep over the store,
    independent of how many environments share the global bindings.
    That rests on two invariants: no prelude definition shadows a
    primitive (so prelude closures keep only prelude names in their
    overlays over the one primitive base), and collections never nest
    within a domain (so one reusable mark table per domain suffices;
    only pool worker domains run machines concurrently). *)

val collect :
  control_locs:Types.loc list ->
  env:Types.Env.t ->
  cont:Types.cont ->
  Store.t ->
  Store.t * int
(** Remove every location unreachable from the configuration; returns
    the collected store and the number of locations reclaimed. *)

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
    bases (prelude-time bindings) are not scanned. *)
