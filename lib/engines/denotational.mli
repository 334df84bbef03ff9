(** A denotational-style evaluator for Core Scheme.

    §16: "The reference implementations described here can be related to
    the denotational semantics of Scheme by proving that every answer
    that is computed by the denotational semantics is computed by the
    reference implementations." This module provides the executable half
    of that relation: a direct transcription of the standard
    continuation-semantics equations

      E[(quote c)] rho kappa sigma    = kappa c sigma
      E[I] rho kappa sigma            = kappa (sigma (rho I)) sigma
      E[L] rho kappa sigma            = kappa (closure L rho) sigma'
      E[(if e0 e1 e2)] rho kappa      = E[e0] rho (test kappa)
      E[(set! i e0)] rho kappa        = E[e0] rho (assign i kappa)
      E[(e0 e1 ...)] rho kappa        = E[e0] rho (evargs ... (apply kappa))

    with expression continuations as OCaml functions, over the same
    value/store domain as the reference machines ({!Tailspace_core}), so
    answers are directly comparable. Escape procedures are modelled with
    a table from escape tags to captured OCaml continuations, giving
    upward-escaping [call/cc] (re-entrant continuations captured by a
    finished evaluation are not supported — a documented restriction of
    the functional encoding).

    The test suite checks answer agreement with all six reference
    machines over the corpus and over randomly generated programs —
    the empirical counterpart of §16's proposed theorem. *)

type outcome =
  | Done of string
  | Error of string
  | Aborted of Tailspace_resilience.Resilience.abort_reason
      (** the evaluation used up its fuel; continuation invocations play
          the step role, so fuel bounds those *)

val eval :
  ?machine:Tailspace_core.Machine.t ->
  ?fuel:int ->
  ?telemetry:Tailspace_telemetry.Telemetry.t ->
  Tailspace_ast.Ast.expr ->
  outcome
(** Evaluate under the standard initial environment. A [machine] may be
    supplied to reuse its initial environment/store (it is not stepped);
    otherwise a fresh default one is created. [random] draws from that
    machine's [Config.seed], as the machine's own runs do. [fuel] bounds the
    continuation invocations (default 50 million). [telemetry] counts
    allocations by kind through the shared store observer and records
    errors as stuck events; there are no machine steps, so the step
    counter reports continuation invocations (the fuel spent). *)

val eval_program :
  ?machine:Tailspace_core.Machine.t ->
  ?fuel:int ->
  ?telemetry:Tailspace_telemetry.Telemetry.t ->
  program:Tailspace_ast.Ast.expr ->
  input:Tailspace_ast.Ast.expr ->
  unit ->
  outcome
(** §12's convention: evaluates [(program input)]. *)
