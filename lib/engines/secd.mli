(** A tail-recursive SECD machine — a {e real} implementation, not a
    reference semantics.

    §16 of the paper proposes proving concrete implementations properly
    tail recursive against the formal definition; the paper also cites
    Ramsdell's tail recursive SECD machine as such an implementation.
    This module is that experiment's subject: a compiler from Core
    Scheme to SECD code (lexical addressing, flat mutable frames, OCaml
    heap for data) and a stack machine with two application rules:

    - [ITailApply]: the callee reuses the caller's dump entry — the
      tail-recursive SECD machine;
    - compiling every call as [IApply] (dump pushed unconditionally)
      recovers the classic SECD machine, which is {e not} properly tail
      recursive.

    The compiler decides tail positions from the program's structure
    alone (see {!compile}).

    The machine reports a measured peak of live words (physical-identity
    walk over stack, environment, dump and reachable data, with shared
    structure counted once — what an actual implementation's memory
    looks like), so experiment E9 can test Definition 5 empirically:
    the tail-recursive variant's space stays within a constant factor of
    [S_tail], the classic variant's diverges.

    Supported language: Core Scheme as produced by the expander, minus
    [call/cc] (escapes are a feature of the reference machines' explicit
    continuations; the SECD subset is documented in DESIGN.md). *)

type outcome =
  | Done of string  (** rendered answer, same conventions as {!Tailspace_core.Answer} *)
  | Error of string
  | Aborted of Tailspace_resilience.Resilience.abort_reason
      (** the run used up its fuel *)

type result = { outcome : outcome; steps : int; peak_words : int }

val run :
  ?fuel:int ->
  ?proper_tail_calls:bool ->
  ?telemetry:Tailspace_telemetry.Telemetry.t ->
  Tailspace_ast.Ast.expr ->
  result
(** Compile and run an expression. [proper_tail_calls] defaults to
    [true]; [false] selects the classic SECD application rule. A run
    that reaches [fuel] instructions ends with [Aborted (Out_of_fuel _)].
    [telemetry] observes the run with the same step events as the
    reference machines: the dump depth plays the continuation-depth
    role, the measured live words the space role (there is no store, so
    store-size and allocation channels stay zero). Default fuel: 20
    million instructions. *)

val run_program :
  ?fuel:int ->
  ?proper_tail_calls:bool ->
  ?telemetry:Tailspace_telemetry.Telemetry.t ->
  program:Tailspace_ast.Ast.expr ->
  input:Tailspace_ast.Ast.expr ->
  unit ->
  result
(** §12's convention: runs [(program input)]. *)

(** {1 Compiler internals (exposed for tests)} *)

type instr =
  | IConst of Tailspace_ast.Ast.const
  | ILocal of int * int  (** frame depth, slot *)
  | IGlobal of string
  | IClosure of template
  | ISel of code * code  (** non-tail conditional; pushes a join point *)
  | ISelTail of code * code  (** tail conditional; no dump traffic *)
  | IJoin
  | ISetLocal of int * int
  | ISetGlobal of string
  | IApply of int  (** pushes a dump frame *)
  | ITailApply of int  (** reuses the caller's dump frame *)
  | IReturn

and code = instr list

and template = { nparams : int; variadic : bool; body : code }

val compile :
  ?proper_tail_calls:bool ->
  Tailspace_ast.Ast.expr ->
  code
(** Compile a closed expression (free identifiers become globals). Tail
    positions are structural: a lambda body is in tail position, the
    branches of an [if] inherit the position of the [if], and
    everything else (the whole program, [if] tests, [set!] right-hand
    sides, operators and operands) is not. *)
