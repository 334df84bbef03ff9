(** Core Scheme internal syntax (Figure 1 of the paper).

    [E ::= (quote c) | I | L | (if E0 E1 E2) | (set! I E0) | (E0 E1 ...)]
    with [L ::= (lambda (I1 ...) E)].

    The expander ({!Tailspace_expander.Expand}) lowers full Scheme into
    this type; the reference machines interpret it directly. Programs
    measured by the space model contain no compound constants (§12), but
    the constant type is kept rich enough for the standard library.

    {!free_vars} keeps nothing between calls: the machines read their
    free-variable sets from {!Tailspace_analysis.Annot}, and the tests
    hold those to this definition. *)

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

val free_vars : expr -> Iset.t
(** Free variables, computed afresh on every call. *)

val free_vars_of_list : expr list -> Iset.t
(** Union of {!free_vars} over a list. *)

val to_datum : expr -> Tailspace_sexp.Datum.t
(** Render back to external syntax (for messages and tests). [C_nil] and
    [C_unspecified] print as [(quote ())] and [#!unspecified]. *)

val pp : Format.formatter -> expr -> unit
val to_string : expr -> string
