(** Static program annotations over an expanded program: per AST node,
    a site id, a tail position, and the free-variable sets the
    reference machines would otherwise recompute inside the step loop.

    {!record} is one eager O(|P|) walk that assigns only what must
    follow program order: each node's site id (post-order) and its tail
    position. Every set is computed the first time a lookup
    ({!free_vars}, {!branch}, {!call}) asks for it, from the children's
    kept sets, and is then kept in the node. Only [I_free] and [I_sfs]
    (§10) read sets, so a machine of the other four variants never
    builds one.

    The [I_free]/[I_sfs] rules restrict environments by free-variable
    sets, and the [I_sfs] push rule restricts to the union of the free
    variables of the call's not-yet-evaluated subexpressions. Every set
    is a {e hash-consed} [Iset.t]: one allocation per distinct set, and
    O(1) physical comparison.

    Annotations never change what a machine observes: they change
    {e when} free variables are computed, not {e what} any rule
    produces, so answers, step counts, and the measured peaks are
    identical with and without them (the differential oracle re-checks
    this; see DESIGN.md, "Static annotation pass"). Lookups write into
    the table, so a table belongs to one machine on one domain.

    Tail positions follow the machine-level reading of the paper's
    Definition 1: tail positions exist only {e inside lambda bodies} —
    the body of a lambda is in tail position, the branches of an [if]
    inherit the position of the [if], and everything else (including the
    whole program, [if] conditions, [set!] right-hand sides, and call
    operator/operands) is not. This deliberately differs from
    {!Tail_calls}, whose source-level statistics treat immediately
    applied lambdas as transparent. *)

module Ast = Tailspace_ast.Ast
module Iset = Ast.Iset

(** A node's tail position. Physical sharing can put one node in both
    positions (e.g. a subterm reused by the expander); such nodes are
    [Both] and consumers must fall back to their structural context. *)
type tail_status = Tail | Nontail | Both

(** The restriction sets for one call site [(e_0 e_1 ... e_k)].
    [elems.(i)] is the interned free-variable set of the i-th
    subexpression ([e_0] is the operator). For the two deterministic
    evaluation orders the per-frame [I_sfs] restriction sets are built
    once as immutable shared lists, so pushing an argument frame
    allocates nothing:

    - [ltr_first] is FV of subexpressions 1..k (the set the first frame
      of a left-to-right evaluation is restricted to) and [ltr_rest] the
      sets for each subsequent frame, aligned with the machine's
      [remaining] list. [rtl_first]/[rtl_rest] are the same for
      right-to-left order.

    Seeded (shuffled) orders use {!seeded_sets} over [elems]. *)
type call_info = {
  elems : Iset.t array;
  ltr_first : Iset.t;
  ltr_rest : Iset.t list;
  rtl_first : Iset.t;
  rtl_rest : Iset.t list;
}

type t

val create : unit -> t

val record : t -> Ast.expr -> unit
(** Annotate [e] and every subterm. Incremental and idempotent: nodes
    already annotated (by physical identity) are skipped, so recording a
    program that shares structure with earlier recordings costs only the
    new nodes. The root is recorded in non-tail position. Records site
    ids and tail positions only; no set is computed. *)

val free_vars : t -> Ast.expr -> Iset.t option
(** The node's interned free variables; [None] for nodes never
    recorded (callers fall back to the dynamic computation). *)

val branch : t -> Ast.expr -> Iset.t option
(** On a recorded [If (e0, e1, e2)]: the interned FV(e1) ∪ FV(e2), the
    [I_sfs] restriction for the select frame. [None] on any other
    node. *)

val call : t -> Ast.expr -> call_info option
(** On a recorded [Call]: its restriction sets. [None] on any other
    node. *)

val tail_status : t -> Ast.expr -> tail_status option

val site_id : t -> Ast.expr -> int option
(** The node's stable site id, assigned in table-insertion (post-)order
    starting at 0. Two tables that {!record} the same programs in the
    same order assign identical ids (independent of gensym'd names),
    which is what lets the provenance layer compare per-site censuses
    across execution engines. *)

val site_expr : t -> int -> Ast.expr option
(** Inverse of {!site_id}: the node a site id names (for labels and
    stuck-trace spans). The site table behind it is built by the first
    call after a {!record} that added nodes. *)

val seeded_sets : call_info -> int list -> Iset.t * Iset.t list
(** [seeded_sets ci rest_indices]: the [I_sfs] restriction sets for a
    shuffled evaluation order whose not-yet-evaluated subexpression
    indices are [rest_indices], in evaluation order. Returns the set for
    the frame created now and the sets for each subsequent frame (the
    analogue of [ltr_first, ltr_rest] for an arbitrary order), built by
    one O(length) right-fold over the interned per-element sets. *)

val intern : t -> Iset.t -> Iset.t
(** Hash-cons a set: the canonical physically-shared representative of
    any set with these elements. *)

val nodes : t -> int
(** Annotated AST nodes. *)

val distinct_sets : t -> int
(** Interned free-variable sets computed so far — the allocation count
    the hash-consing bounds. *)
