(** The store [sigma : Location -> Value] (Figure 4), with the flat space
    total [space(sigma) = sum (1 + space(sigma(alpha)))] (Figure 7)
    maintained incrementally so that measuring a configuration at every
    machine step is O(1).

    The store is a persistent map: the garbage-collection rule and the
    [I_stack] deletion rule produce new stores without mutation, exactly
    like the small-step semantics. Locations are allocated from a
    monotone counter, which trivially satisfies the freshness side
    conditions ("alpha does not occur within L, rho, kappa, sigma"); a
    cell's first value can therefore name only older locations.

    The cells live in a {!Locmap}: [Map.Make (Int)]'s AVL tree with the
    location comparison inlined, so every operation allocates what the
    functor's would. {!remove_all} and {!sweep} take each present cell
    out in one traversal, and {!fold_from} skips the subtrees below its
    bound instead of splitting the map.

    {b Old generation.} A measured run calls {!start_run} on the
    machine's initial store: every cell already allocated (the
    primitives and the prelude, the {e world}) becomes old, and the
    run's first location is the next one the allocator hands out. An old
    cell's value was built before the run, so it can name only old
    locations, until a write puts a run-time value in it. {!set} on an
    old cell therefore trips a write barrier; the barrier is part of the
    persistent store, so it stays tripped in every store derived from
    that one, i.e. for the rest of the run. While it is clear, old cells
    point only at old cells, which lets the collector and the [I_stack]
    occurs-check skip them (see {!Gc}).

    {b Write tracking.} From {!start_run} on, a store also knows which
    of its cells the run has written ({!fold_written}: the only cells
    that can name a location younger than themselves), and which cells
    were written or removed since the collector last swept it
    ({!changes}, per {e epoch}: {!sweep} starts a new one). Both are
    persistent like the barrier. They cost one set insertion and one
    list cell per {!set}, and one set deletion per removed written
    cell; a store that never started a run (the prelude being built)
    pays nothing and answers conservatively. *)

type t

val empty : t

val alloc : t -> Types.value -> t * Types.loc
(** Fresh location initialized to the given value. *)

val alloc_many : t -> Types.value list -> t * Types.loc list

val find_opt : t -> Types.loc -> Types.value option

val set : t -> Types.loc -> Types.value -> t
(** [sigma[alpha -> v]]; the space total is adjusted by the difference.
    Trips the write barrier when [alpha] is below the run's first
    location.
    @raise Invalid_argument if the location is not in the store. *)

val mem : t -> Types.loc -> bool

val remove_all : t -> Types.loc list -> t
(** Used by the [I_stack] deletion rule. Absent locations are ignored;
    each removed cell is a change of the epoch (see {!changes}). *)

val sweep : t -> Types.loc list -> t
(** The collector's removal: [remove_all] that starts a new epoch, whose
    {!changes} are empty and whose {!epoch} no other store has had. *)

val cardinal : t -> int
(** O(1): the count is maintained incrementally, like the space total,
    so telemetry can observe the store size at every step. *)

val young_cardinal : t -> int
(** O(1): how many cells lie at or above {!first_run_loc}. *)

val next_loc : t -> Types.loc
(** The location the next {!alloc} hands out: every cell allocated after
    this store lies at or above it. *)

val space : t -> int  (** O(1). *)

val on_alloc : t -> (Types.loc -> Types.value -> unit) -> t
(** Add an allocation hook: every subsequent [alloc] on this store, or
    on any store derived from it, calls it with the location handed out
    and the value, before installing the value. Hooks compose: each runs
    after those added before it. Telemetry counts allocations by kind
    through one, the provenance census tags each location with its
    allocation site through another; a store with none pays one branch
    per allocation. *)

val iter : (Types.loc -> Types.value -> unit) -> t -> unit
val fold : (Types.loc -> Types.value -> 'a -> 'a) -> t -> 'a -> 'a

val fold_from :
  Types.loc -> (Types.loc -> Types.value -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_from lo f] is {!fold} restricted to locations [>= lo], in
    increasing order, without visiting the cells below [lo]. *)

(** {1 Old generation} *)

val start_run : t -> t
(** Make every allocated cell old: the run's first location becomes
    the next location the allocator will hand out, the write barrier
    and the written cells are cleared, and a new epoch starts. *)

val first_run_loc : t -> Types.loc
(** The run's first location: the cells below it are old. [0] (no old
    generation) until {!start_run}. *)

val old_written : t -> bool
(** Whether the write barrier has tripped: {!set} has written a cell
    below {!first_run_loc} since {!start_run}. *)

(** {1 Write tracking} *)

val fold_written :
  (Types.loc -> Types.value -> 'a -> 'a) -> t -> 'a -> 'a
(** Every cell {!set} since {!start_run} that is still in the store, in
    increasing location order; every cell when no run was started. A
    cell not among them holds the value it was allocated with, which
    names only older locations. O(written cells). *)

val epoch : t -> int
(** Identifies the last {!sweep} (or {!start_run}) this store derives
    from: stores derived from different sweeps have different epochs. *)

val changes : t -> Types.loc list option
(** The cells written or removed since this store's epoch began, most
    recent first, with repeats; [None] when no run was started, or once
    there were more changes than cells in the store, when the list is
    no longer kept. *)
