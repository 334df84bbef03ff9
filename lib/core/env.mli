(** Environments: finite maps from identifiers to store locations
    ([rho : Identifier -> Location], Figure 4).

    Representation: a shared immutable {e base} plus an {e overlay} of
    bindings added since. The machine builds two bases and shares each
    physically: the primitives, which every prelude closure captures,
    and the whole initial global environment, which every run-time
    environment of the program starts from. The split is invisible to
    lookup semantics; it exists so the garbage collector and the linked
    space walk visit each global binding once per collection or walk
    instead of once per environment, and so the [I_stack] occurs-check
    can skip the globals. The flat space model's [|Dom rho|] is cached
    for O(1) access.

    Both parts are balanced trees keyed by identifiers ordered by
    length, then by bytes, not by [String.compare]: most names that
    meet in a search differ in length, and one integer comparison then
    settles them, where [String.compare] scans the shared prefix of
    names like [cadr] and [caddr]. The iteration functions below follow
    this order, so a consumer whose output depends on the order must
    impose its own (the census lists locations by [String] order of
    their identifiers). Free-variable sets ({!Tailspace_ast.Ast.Iset})
    keep [String] order: no lookup searches them on the measured path
    of [I_tail], and building them in another order changed the tree
    shapes and allocation of every annotation. *)

type loc = int

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** [|Dom rho|], O(1). *)

val find_opt : string -> t -> loc option
val mem : string -> t -> bool

val add : string -> loc -> t -> t
(** [add x a rho] is [rho[x -> a]] (shadows any base binding). *)

val add_list : (string * loc) list -> t -> t

val rebase : t -> t
(** Collapse every binding into a fresh base. The machine calls this
    after binding the primitives, so that the prelude closures share
    one primitive base and keep only earlier prelude names in their
    overlays, and again after loading the prelude, so that all run-time
    environments share one global base. *)

val restrict : t -> Tailspace_ast.Ast.Iset.t -> t
(** [restrict rho xs] is [rho | (Dom rho ∩ xs)] — the operation the
    [I_free]/[I_sfs] rules apply. When [xs ⊇ Dom rho] the restriction is
    the identity and [rho] is returned physically unchanged (keeping its
    base/overlay split); otherwise the result is base-less, built by
    looking up each member of [xs]: O(|xs| log |Dom rho|), however many
    globals [rho] holds. *)

val bindings : t -> (string * loc) list
(** Shadow-aware: one pair per identifier in [Dom rho]. *)

val locations : t -> loc list

val iter : (string -> loc -> unit) -> t -> unit
(** Shadow-aware iteration over [graph(rho)]: the overlay, then the
    unshadowed base, each in the length-first key order. *)

val fold : (string -> loc -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Tracing support}

    The collector and the linked space walk visit an environment as its
    overlay plus, once per walk, each distinct base. *)

val iter_overlay : (string -> loc -> unit) -> t -> unit
(** Only the overlay. May include bindings that shadow the base; the
    collector over-approximates by tracing both, which can pin a
    shadowed global cell — a bounded, documented overcount. No prelude
    definition shadows a primitive, so the machine's initial world has
    none. *)

val has_base : t -> bool
val base_eq : t -> t -> bool
(** Physical identity of the bases; the once-per-base dedup key. *)

val iter_base : (string -> loc -> unit) -> t -> unit
(** Every base binding, shadowed or not. *)

val mem_base : string -> t -> bool
(** Whether the base binds the identifier, shadowed or not: an overlay
    identifier for which this holds shadows a base binding. *)

val overlay_is_empty : t -> bool
(** Whether every binding is in the base: true right after {!rebase}. *)
