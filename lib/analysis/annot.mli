(** Static program annotations over an expanded program: per AST node,
    a site id and the free-variable sets the [I_free] and [I_sfs]
    machines (§10) restrict environments to.

    {!record} is one eager O(|P|) walk that assigns only what must
    follow program order: each node's site id (post-order). Every set
    is computed the first time a lookup ({!free_vars}, {!branch},
    {!call}) asks for it, from the children's kept sets, and is then
    kept in the node. Only [I_free] and [I_sfs] read sets, so a machine
    of the other four variants never builds one.

    This table is the machines' only source of free-variable sets and
    site ids: a machine records every expression before it steps it,
    so a lookup miss there is a bug. The [I_free]/[I_sfs] rules
    restrict environments by free-variable sets, and the [I_sfs] push
    rule restricts to the union of the free variables of the call's
    not-yet-evaluated subexpressions. Every set is a {e hash-consed}
    [Iset.t]: one allocation per distinct set, and O(1) physical
    comparison. Lookups write into the table, so a table belongs to one
    machine on one domain.

    The tests hold each kind of set to {!Tailspace_ast.Ast.free_vars}
    computed afresh, in any lookup order, and the figures of every
    variant and argument order to pinned values (DESIGN.md, "Static
    annotation pass"). Tail positions are not recorded here: the
    compilers derive them from the program's structure. *)

module Ast = Tailspace_ast.Ast
module Iset = Ast.Iset

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
    new nodes. Records site ids only; no set is computed. *)

val free_vars : t -> Ast.expr -> Iset.t option
(** The node's interned free variables; [None] for nodes never
    recorded. *)

val branch : t -> Ast.expr -> Iset.t option
(** On a recorded [If (e0, e1, e2)]: the interned FV(e1) ∪ FV(e2), the
    [I_sfs] restriction for the select frame. [None] on any other
    node. *)

val call : t -> Ast.expr -> call_info option
(** On a recorded [Call]: its restriction sets. [None] on any other
    node. *)

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
