(** Values and continuations of the reference machines (Figure 4), with
    the flat space model of Figure 7 built in.

    Every continuation node caches its own flat space so that measuring a
    configuration at every machine step costs O(1); the sizes are fixed at
    construction, which is sound because continuations are immutable. *)

module Bignum = Tailspace_bignum.Bignum
module Ast = Tailspace_ast.Ast
module Env : module type of Env

type loc = Env.loc

type value =
  | Bool of bool
  | Int of Bignum.t
  | Sym of string
  | Str of string  (** immutable; no store identity (documented deviation) *)
  | Char of char
  | Nil
  | Unspecified
  | Undefined
      (** content of a letrec-bound location before initialization;
          reading it through a variable reference is stuck (§7) *)
  | Pair of loc * loc  (** car and cdr cells live in the store *)
  | Vector of loc array
  | Closure of loc * Ast.lambda * Env.t
      (** [CLOSURE:(alpha, L, rho)]; [alpha] is the identity tag the
          lambda rule allocates (the "bug in the design of Scheme") *)
  | Escape of loc * cont  (** [ESCAPE:(alpha, kappa)], from [call/cc] *)
  | Primop of int
      (** a primitive's code: its index in {!Prim.names}' sorted order;
          {!Prim.kind} says what it is *)

(** Continuations (Figure 4). [Push] carries original argument positions
    so that any evaluation permutation [pi] can reassemble
    [(v0, v1, ...)] in operator/operand order; the paper's
    [reverse(pi^-1(...))] bookkeeping is represented by the index
    pairs. *)
and cont =
  | Halt
  | Select of {
      e1 : Ast.expr;
      e2 : Ast.expr;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
          (** provenance site of the expression that pushed the frame
              ([-1] when provenance is off); bookkeeping only — sites
              never contribute to [size] *)
    }
  | Assign of {
      id : string;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Push of {
      pending : int;  (** original position of the expression being evaluated *)
      remaining : (int * Ast.expr) list;
      evaluated : (int * value) list;
      fv_rest : Ast.Iset.t list;
          (** the [I_sfs] restriction sets from the annotation table,
              one per element of [remaining] ([[]] when not Sfs). Pure
              bookkeeping: holds no locations and contributes no
              space. *)
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Call of {
      vals : value list;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
      (** operands in operator/operand order; the operator is in the
          accumulator *)
  | Return of {
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
      (** [I_gc] *)
  | Return_stack of {
      dels : loc list;  (** the nondeterministically chosen set [A] *)
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }  (** [I_stack] *)

(** {1 Smart constructors} (compute the cached flat size; [?site] is
    the provenance site of the pushing expression, default [-1]) *)

val select :
  ?site:int -> e1:Ast.expr -> e2:Ast.expr -> env:Env.t -> next:cont -> unit -> cont

val assign : ?site:int -> id:string -> env:Env.t -> next:cont -> unit -> cont

val push :
  ?fv_rest:Ast.Iset.t list ->
  ?site:int ->
  pending:int ->
  remaining:(int * Ast.expr) list ->
  evaluated:(int * value) list ->
  env:Env.t ->
  next:cont ->
  unit ->
  cont

val call : ?site:int -> vals:value list -> next:cont -> unit -> cont
val return_gc : ?site:int -> env:Env.t -> next:cont -> unit -> cont
val return_stack : ?site:int -> dels:loc list -> env:Env.t -> next:cont -> unit -> cont

(** {1 Flat space model (Figure 7)} *)

val cont_space : cont -> int
(** O(1): reads the cached size. *)

val cont_depth : cont -> int
(** O(1): number of frames above [Halt] (the cached depth). *)

val value_space : value -> int
(** [space(v)]: 1 for atoms, [1 + bitlength z] for integers,
    [1 + n] for vectors, [1 + |Dom rho|] for closures, [3] for pairs,
    [1 + length] for strings, [1 + space(kappa)] for escapes. *)

val value_of_const : Ast.const -> value
(** Constants denote themselves (first reduction rule). *)

(** {1 Structure} *)

val value_locs : value -> loc list
(** Locations occurring directly in a value (one level; not through the
    store), a closure's or a continuation's environments listed by
    {!Env.locations}. *)

val value_locs_by : env_locs:(Env.t -> loc list) -> value -> loc list
(** {!value_locs} with each environment listed by [env_locs]. *)

val tag_of_value : value -> string
(** Short constructor name for error messages ("pair", "closure", ...). *)
