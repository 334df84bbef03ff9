(** Core Scheme internal syntax (Figure 1 of the paper).

    [E ::= (quote c) | I | L | (if E0 E1 E2) | (set! I E0) | (E0 E1 ...)]
    with [L ::= (lambda (I1 ...) E)].

    The expander ({!Tailspace_expander.Expand}) lowers full Scheme into
    this type; the reference machines interpret it directly. Programs
    measured by the space model contain no compound constants (§12), but
    the constant type is kept rich enough for the standard library. *)

module Iset : Set.S with type elt = string

type ident = string

type const =
  | C_bool of bool
  | C_int of Tailspace_bignum.Bignum.t
  | C_sym of string
  | C_str of string
  | C_char of char
  | C_nil
  | C_unspecified
      (** result of [set!], one-armed [if], etc. Not writable in source. *)
  | C_undefined
      (** initial content of [letrec]-bound locations; a variable
          reference that reads UNDEFINED is stuck (§7). Expander-internal,
          not writable in source. *)

type expr =
  | Quote of const
  | Var of ident
  | Lambda of lambda
  | If of expr * expr * expr
  | Set of ident * expr
  | Call of expr * expr list  (** operator, operands *)

and lambda = {
  params : ident list;
  rest : ident option;  (** rest parameter for variadic procedures *)
  body : expr;
}

val lambda : ?rest:ident -> ident list -> expr -> expr

val equal : expr -> expr -> bool

val size : expr -> int
(** [|P|]: the number of abstract-syntax-tree nodes, the additive term in
    Definition 23's space consumption. *)

type fv_memo
(** A table of free-variable sets keyed by physical node identity. It
    only grows, so it should live no longer than the expressions it
    serves: an unannotated [I_free]/[I_sfs] machine keeps one for its
    own lifetime. A memo is not safe to share between domains. *)

val fv_memo : unit -> fv_memo

val free_vars : ?memo:fv_memo -> expr -> Iset.t
(** Free variables. With [memo], each node's set is computed once and
    kept there, so repeated queries are cheap; without, the sets are
    computed afresh. *)

val free_vars_lambda : ?memo:fv_memo -> lambda -> Iset.t

val free_vars_of_list : ?memo:fv_memo -> expr list -> Iset.t
(** Union of {!free_vars} over a list (used by the [I_sfs] push rules). *)

val to_datum : expr -> Tailspace_sexp.Datum.t
(** Render back to external syntax (for messages and tests). [C_nil] and
    [C_unspecified] print as [(quote ())] and [#!unspecified]. *)

val pp : Format.formatter -> expr -> unit
val to_string : expr -> string
