(** The differential fault-injection oracle.

    Re-checks Corollary 20 (the observable answer is independent of the
    machine variant) and the schedule-independence of the [`Exact] peak
    (Definition 21's space is the sup of live space, which forced
    collections cannot change) under adversarial GC schedules, and
    exercises [I_stack]'s Algol dangling-pointer stuck state on
    demand.

    The oracle also checks the static annotation pass differentially:
    annotated and unannotated machines must produce identical answers,
    peak space, and step counts across all six variants — the pass may
    only change {e when} free-variable sets are computed, never what a
    rule observes. *)

module Machine = Tailspace_core.Machine
module Resilience = Tailspace_resilience.Resilience
module Json = Tailspace_telemetry.Telemetry.Json

type check = {
  family : string;
  n : int;
  variant : Machine.variant;
  plan : string;  (** the adversarial fault plan's label *)
  answer_agrees : bool;
  peak_stable : bool;
      (** every model's [`Exact] peak (flat, linked and log) identical to
          the baseline run's *)
  baseline_status : string;
  status : string;
  baseline_peak : int;  (** the baseline run's flat peak *)
  peak : int;  (** this run's flat peak *)
}

type report = {
  checks : check list;
  cross_variant_agree : bool;
      (** all six variants produce the same observable status per
          program (Corollary 20) *)
  algol_stuck_on_demand : bool;
      (** the [I_stack]/Algol dangling-pointer stuck state is reachable
          when asked for *)
  annot_invariant : bool;
      (** annotated and unannotated runs agree exactly on status, step
          count, and peak space for every (program, variant) *)
  annot_failures : string list;
      (** human-readable description of each annotation disagreement *)
  vm_invariant : bool;
      (** the fast bytecode VM agrees as a seventh engine on the full
          corpus: it produces the Tail stepper's answers everywhere, and
          on non-slow entries those of all six variants *)
  vm_failures : string list;
      (** human-readable description of each VM disagreement *)
  census_invariant : bool;
      (** heap censuses are sound: per-site live words sum exactly to
          the measured peak under the flat, linked, and log measures on
          all six variants, and flamegraph stacks partition the peak *)
  census_failures : string list;
      (** human-readable description of each census disagreement *)
  fixnum_invariant : bool;
      (** toggling the bignum fixnum fast path is observationally
          invisible: status, step count, and peak space are bit-identical
          with fixnums on and off for every (program, variant) under the
          stepper, and the fast VM's status is too on [Tail] (its
          accounting is compiled out) — the space charge is a function
          of magnitude, not representation *)
  fixnum_failures : string list;
      (** human-readable description of each fixnum disagreement *)
  log_invariant : bool;
      (** the three space models obey their pointwise scaling laws at
          the peaks on every (program, variant):
          [linked <= flat], [linked <= log], and
          [log <= word_bits * flat] *)
  log_failures : string list;
      (** human-readable description of each log-model violation *)
  ok : bool;
}

val adversarial_plans : Resilience.Fault.plan list
(** The hostile GC schedules each (program, variant) is re-run under:
    collect before every step, every third step, and two seeded
    pseudorandom schedules. *)

val run :
  ?fuel:int ->
  ?programs:(string * Tailspace_ast.Ast.expr * int) list ->
  unit ->
  report
(** Run the oracle. Default programs: the four Theorem 25 separating
    families at n=12 plus three fast corpus entries at their first
    checked input. [fuel] (default 2M) bounds each individual run. *)

val failures : report -> check list

val render : report -> string
(** Human-readable report; ends with [oracle: OK] or [oracle: FAILED]. *)

val to_json : report -> Json.t
(** [{"ok", "cross_variant_agree", "algol_stuck_on_demand",
    "annot_invariant", "annot_failures", "vm_invariant", "vm_failures",
    "census_invariant", "census_failures", "fixnum_invariant",
    "fixnum_failures", "log_invariant", "log_failures", "checks",
    "failures"}]. *)
