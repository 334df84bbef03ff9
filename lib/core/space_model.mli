(** The space-accounting models.

    The paper gives two columns: flat [S_X] (Figure 7: every reachable
    location costs one word) and linked [U_X] (Figure 8, section 13:
    shared environment structure is deduplicated, so each distinct
    (identifier, location) binding costs one word globally). This
    module adds a third, pointer-size model [Log] after
    Accattoli-Dal Lago-Vanoni ("Reasonable Space for the Lambda-Calculus,
    Logarithmically"): a location is named by a pointer, and a pointer
    into a store of [k] cells needs only [ceil(log2 k)] bits - so every
    linked-model unit is charged [pointer_bits] bit-units instead of one
    word.

    Charge table (per live unit):

    {v
      model    unit   env binding        frame/closure word   store cell
      Flat     word   1 per reference    1                    1 + |value|
      Linked   word   1, deduplicated    1                    1 + |value|
      Log      bit    b, deduplicated    b                    b * (1 + |value|)
    v}

    where [b = max 1 (ceil(log2 |store|))] is the pointer size for the
    measured store. [Flat] and [Linked] are measured in words; [Log] is
    measured in bits. To compare across models, scale word counts by
    {!word_bits}. *)

type t = Flat | Linked | Log

val all : t list
(** All models, in canonical order: [[Flat; Linked; Log]]. *)

val compare : t -> t -> int
(** Canonical order: [Flat < Linked < Log]. *)

val equal : t -> t -> bool

val name : t -> string
(** ["flat"], ["linked"], ["log"]. *)

val of_name : string -> t option

val word_bits : int
(** The word size used to compare word-denominated models against the
    bit-denominated [Log] model: 64. *)

val to_bits : t -> int -> int
(** [to_bits model x] scales a charge [x] in [model]'s native unit into
    bits: [x * word_bits] for the word models, [x] for [Log]. *)

val normalize : t list -> t list
(** Sort into canonical order, drop duplicates, and make sure [Flat] is
    present - flat accounting drives the lazy-GC measured loop, so it is
    always measured. [normalize [] = [Flat]]. *)

val mem : t -> t list -> bool
