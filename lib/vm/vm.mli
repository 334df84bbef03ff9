(** The bytecode VM execution tier.

    The six reference machines are AST-walking steppers: faithful, but
    every run pays their interpretive overhead. This tier compiles the
    expanded Core Scheme AST once, to a flat instruction array executed
    by a dispatch loop with explicit value and frame stacks over an
    untracked value domain: no store, no space accounting. A tail call
    replaces the arguments and jumps without pushing a frame, so the
    callee runs in (reuses) the caller's frame: Clinger's "proper tail
    recursion" realized as frame reuse. The compiler decides tail
    positions from the program's structure alone (see {!compile}). It
    reports answers, output, and an instruction count; it measures no
    space and runs no collector, so its results carry no peak.
    Left-to-right evaluation only, no fault injection, no linked or log
    measurement. Every measured figure comes from the stepper,
    [Machine.exec_program].

    [Tailspace_harness.Oracle] checks its answers against the steppers
    on the whole corpus. *)

module Ast = Tailspace_ast.Ast
module Machine = Tailspace_core.Machine
module Resilience = Tailspace_resilience.Resilience

(** {1 Results} *)

type outcome =
  | Done of string  (** the rendered answer (Definition 11) *)
  | Stuck of string
  | Aborted of Resilience.abort_reason

type result = {
  outcome : outcome;
  steps : int;  (** executed instructions *)
  program_size : int;  (** [|P|], the [Ast.size] of the executed term *)
  output : string;
}

val exec_program :
  ?opts:Machine.Run_opts.t ->
  Machine.Config.t ->
  program:Ast.expr ->
  input:Ast.expr ->
  result
(** Run [(program input)] on the fast tier.

    @raise Invalid_argument if [config.engine <> Vm_fast], or if the
    config/opts demand accounting the fast tier compiles out
    ([variant <> Tail], a non-left-to-right [perm], a [measure] list
    beyond [[Flat]], a provenance census, or a fault plan). *)

(** {1 The fast tier's code, exposed for tests and disassembly} *)

type instr =
  | Const of int  (** push constant-pool slot *)
  | Local of int * int  (** push local (rib depth, slot) *)
  | Global of int  (** push global slot *)
  | SetLocal of int * int  (** pop value, write local, push unspecified *)
  | SetGlobal of int
  | MkClosure of int  (** capture the current rib chain over template *)
  | JumpIfFalse of int  (** pop; jump when [#f] *)
  | Jump of int
  | Call of int  (** call with [n] arguments: push frame, enter *)
  | TailCall of int
      (** tail call with [n] arguments: {e no} frame push — the callee
          runs in the caller's frame (proper tail recursion) *)
  | Return  (** pop frame: restore caller pc and environment *)
  | Halt

type compiled

val compile : Ast.expr -> compiled
(** Compile a closed expression (free names resolve to the primitive
    and prelude globals) together with the shared prelude. Total on any
    expanded AST. Tail positions are structural: a lambda body is in
    tail position and the branches of an [if] inherit the position of
    the [if]. *)

val main_code : compiled -> instr array
(** The compiled expression's own instruction stream (prelude excluded):
    the main unit followed by the templates it created, addresses
    rebased to 0. *)

val disassemble : compiled -> string
(** Human-readable listing of {!main_code} — one instruction per line
    with resolved names, constants, and template boundaries; jump and
    call targets are unit-relative, so the listing is stable under
    prelude and primitive-table changes. Golden-tested. *)
