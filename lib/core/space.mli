(** The linked-environment space model (Figure 8, §13).

    In the linked model each binding — a pair of an identifier and a
    location — is counted {e once per configuration}, no matter how many
    environments (the register, saved continuation environments, closure
    environments anywhere in the configuration or store) contain it;
    environments are shared rather than copied. Everything else is
    charged as in the flat model, except that closures cost 1 word plus
    their (shared) bindings and each continuation frame costs its
    non-environment overhead.

    This yields the [U_X] space consumption functions; Theorem 26 shows
    [O(U_tail)] and [O(U_evlis)] are incomparable with [O(S_free)] and
    [O(S_sfs)], which experiment E4 reproduces. *)

val linked_config_space :
  control:[ `Expr of Tailspace_ast.Ast.expr | `Value of Types.value ] ->
  env:Types.Env.t ->
  cont:Types.cont ->
  store:Store.t ->
  int
(** The linked space of a configuration. The store should be fully
    garbage collected first, since Definition 21 measures space-efficient
    computations only.

    Each global binding is visited once per walk: overlays are added as
    they are met, and each distinct environment base (see {!Env}) once
    at the end, a base binding counting unless every environment over
    that base shadows its name; a base gets shadow counts only when an
    overlay over it shadows a name. The binding set is a table indexed
    by location, with the names bound there, one per domain: it grows
    to the largest location met, and each walk's fresh epoch empties it,
    so adding a pair hashes nothing and allocates only for a second name
    at one location, and a walk that raises (say, on a negative
    location) leaves nothing behind. A walk costs O(cells + frames +
    overlay bindings + bindings of distinct bases), independent of how
    many environments share the globals; the figure equals the union of
    every environment's shadow-aware graph. *)

val pointer_bits : Store.t -> int
(** The pointer size for the logarithmic model: a pointer into a store of
    [k] live cells needs [ceil(log2 k)] bits, clamped to at least 1. The
    store should be fully garbage collected first, like
    {!linked_config_space}. The [Space_model.Log] measure of a
    configuration, in bit-units, charges every linked-model word this
    many bits: [pointer_bits store * linked_config_space c]. *)
