(** Arbitrary-precision signed integers.

    The space model of Clinger's reference machines charges an exact
    integer [z] a cost of [1 + log2 z] machine words, and Scheme's exact
    arithmetic is unbounded, so the machines cannot be built on native
    [int]s: iterating [(f (- n 1))] from a large [n], or computing
    factorials in the corpus, must neither overflow nor misreport space.
    This module is a self-contained bignum implementation (sign-magnitude,
    base-2{^30} limbs, behind a tagged fixnum fast path) with exactly the
    operations the Scheme primitives need, each by one schoolbook path:
    quadratic multiplication, shift-subtract division and 10{^9}-chunk
    decimal conversion. The space charge depends on the magnitude alone,
    so no choice of algorithm can move a measured peak.

    All functions are pure; values are immutable and canonical (no
    negative zero, no leading zero limbs), so structural equality agrees
    with numeric equality. Every observer is representation-agnostic: a
    fixnum-tagged value and a limb-array value denoting the same integer
    are indistinguishable (equal, same rendering, same [bit_length]) —
    which is why toggling {!set_fixnums} can never change a machine's
    answers, step counts, or space charges. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int : t -> int option
(** [to_int z] is [Some n] when [z] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optional sign followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering, with a leading ['-'] for negative values. *)

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool

val is_even : t -> bool
(** Parity straight off the low limb / low bit — no division. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is truncated division: [(q, r)] with [a = q*b + r],
    [|r| < |b|], and [r] having the sign of [a] (or zero). This is
    Scheme's [quotient]/[remainder] pair.
    @raise Division_by_zero when [b] is zero. *)

val quotient : t -> t -> t
val remainder : t -> t -> t

val modulo : t -> t -> t
(** Scheme's [modulo]: the result has the sign of the divisor. *)

val pow : t -> int -> t
(** [pow base n] for [n >= 0].
    @raise Invalid_argument on a negative exponent. *)

(** {1 Bit-level} *)

val bit_length : t -> int
(** Number of bits in the magnitude; [bit_length zero = 0]. This is the
    quantity the space model uses: [space (NUM:z) = 1 + bit_length z]. *)

(** {1 Fixnum fast path}

    While its magnitude fits in 61 bits, a value is carried as a tagged
    native [int] and add/sub/mul/divmod run in native arithmetic with an
    overflow range check — no limb allocation. The toggle only affects
    how new values are {e constructed}; mixed-representation values
    remain sound because every observer above is representation-agnostic.
    The space charge ([1 + bit_length]) is a function of magnitude alone,
    so test_machine "fixnums" checks that answers, steps, and flat peaks
    are bit-identical with the fast path on and off on all six variants,
    and test_vm "fixnums on and off" checks the fast VM's answers. *)

val set_fixnums : bool -> unit
(** Enable/disable fixnum tagging for subsequently constructed values.
    Defaults to enabled. The tests' all-limbs reference. *)

val fixnums_enabled : unit -> bool

val is_fixnum : t -> bool
(** Whether this particular value is carried as a tagged native int. *)
