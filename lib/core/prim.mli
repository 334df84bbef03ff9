(** Standard primitive procedures.

    The paper leaves primitive rules unspecified ("These core rules must
    be supplemented by additional rules, mainly for primitive
    procedures"). Here a primitive application is a single transition:
    given the store and the argument values it produces a new store and a
    result value, never creating a continuation — so primitives are
    space-neutral apart from what they allocate, in every machine
    variant.

    Every primitive has a code, its index in the name order of
    {!names}; a [Primop] value carries it. [apply] and
    [call-with-current-continuation] (also bound as [call/cc]) are
    bound in the initial environment, but {!Machine} and the
    denotational evaluator carry them out, since they manipulate the
    continuation itself. *)

exception Prim_error of string
(** Raised by a primitive on a domain error; the machine reports the
    computation as stuck. *)

type ctx = {
  output : Buffer.t;  (** [display]/[write]/[newline] sink *)
  mutable rng : int;  (** deterministic LCG state for [random] *)
}

val make_ctx : ?seed:int -> unit -> ctx

type fn = ctx -> Store.t -> Types.value list -> Store.t * Types.value

(** What the primitive with a given code is. *)
type kind =
  | Apply  (** [apply] *)
  | Call_cc  (** [call-with-current-continuation], also named [call/cc] *)
  | Fn of fn  (** any other primitive: its transition function *)

val kind : int -> kind
(** The kind of the primitive with this code. Every [Primop] value in
    the initial environment carries a valid code. *)

val names : unit -> string list
(** All primitive names, including [apply] and [call/cc], sorted: the
    name at index [i] is the one whose code is [i]. *)

val initial_bindings : unit -> (string * Types.value) list
(** The [(name, PRIMOP code)] pairs for the initial environment
    [rho_0] / store [sigma_0] (§12), in code order. Built once; every
    machine shares the list. *)

(** {1 Helpers shared with the machine and tests} *)

val eqv : Types.value -> Types.value -> bool
(** [eqv?]: numbers and characters by value, pairs/vectors/procedures by
    location identity, strings structurally (our strings are immutable
    and have no store identity — documented deviation). *)

val list_to_values : Store.t -> Types.value -> Types.value list option
(** Flatten a store-allocated proper list; [None] if improper/cyclic
    (bounded by store size). *)

val values_to_list : Store.t -> Types.value list -> Store.t * Types.value
(** Allocate a fresh proper list holding the given values. *)
