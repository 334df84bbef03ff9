(** Resource governance and deterministic fault injection for the
    reference machines, the alternative engines, and the harness.

    The paper's separating programs (Theorem 25) are built to blow up
    space, and the [I_stack] semantics gets stuck by design, so every
    measurement run must be bounded and every way a run can end must be
    a structured outcome rather than an exception or an unbounded loop.
    This module supplies the three pieces the rest of the system threads
    through:

    - {!Budget}: a bundle of limits (step fuel, flat-space words, a
      wall-clock deadline, an output-byte cap) enforced at the machines'
      per-step observation point;
    - {!abort_reason}: the failure taxonomy — the old [Out_of_fuel]
      outcome is one case of it;
    - {!Fault}: seeded, deterministic fault plans (force a collection at
      chosen steps, fail the Nth allocation, drop fuel mid-run) used by
      the differential oracle to re-check Corollary 20 under adversarial
      GC schedules.

    The library sits below [Tailspace_core] and depends only on the
    telemetry JSON codec and the Unix clock. *)

module Json := Tailspace_telemetry.Telemetry.Json

(** {1 The failure taxonomy} *)

type abort_reason =
  | Out_of_fuel of { limit : int }
      (** the step budget ran out (the pre-existing fuel counter) *)
  | Space_exceeded of { budget : int; live : int }
      (** the configuration's flat space stayed above the budget even
          after a full collection *)
  | Deadline_exceeded of { timeout_s : float }
      (** the wall-clock deadline passed *)
  | Output_exceeded of { cap : int; written : int }
      (** [display]/[write] produced more bytes than allowed *)
  | Injected_fault of string
      (** a {!Fault} plan fired (e.g. the Nth allocation failed) *)
  | Crashed of string
      (** the supervisor caught an unexpected exception — never raised
          by the machines themselves *)

val abort_reason_name : abort_reason -> string
(** Stable short tag: ["out-of-fuel"], ["space-budget"], ["deadline"],
    ["output-cap"], ["injected-fault"], ["crashed"]. *)

val abort_reason_of_name : string -> abort_reason option
(** Inverse of {!abort_reason_name} on the tag alone (payload fields are
    zeroed) — enough for JSON consumers that switch on the tag. *)

val abort_reason_message : abort_reason -> string
(** One-line human description including the payload. *)

val abort_reason_to_json : abort_reason -> Json.t
(** [{"reason": <tag>, ...payload fields}] *)

(** {1 Wall clock} *)

module Clock : sig
  (** The clock {!Guard} deadlines read; nothing else but the tests
      reads it. The source is injectable so time-dependent tests
      advance a fake clock instead of sleeping. *)

  val now : unit -> float
  (** Seconds from the current source (default [Unix.gettimeofday]). *)

  val with_source : (unit -> float) -> (unit -> 'a) -> 'a
  (** [with_source fake k] runs [k] with [fake] installed, restoring
      the previous source even if [k] raises. Install fakes before
      spawning anything that reads the clock concurrently. *)
end

(** {1 Budgets} *)

module Budget : sig
  (** A bundle of limits for one run. [None] fields are unlimited; the
      machines treat a missing [fuel] as their historical 20M-step
      default. *)
  type t = {
    fuel : int option;  (** maximum machine steps *)
    space_words : int option;
        (** maximum flat space (Definition 21 words) the live
            configuration may occupy *)
    timeout_s : float option;  (** wall-clock seconds from run start *)
    output_bytes : int option;  (** cap on bytes written by the program *)
  }

  val unlimited : t

  val make :
    ?fuel:int ->
    ?space_words:int ->
    ?timeout_s:float ->
    ?output_bytes:int ->
    unit ->
    t
end

(** {1 Enforcement}

    A {!Guard.t} is the per-run mutable state derived from a budget: the
    effective fuel limit (which fault plans may lower mid-run), the
    absolute deadline, and a throttle so the clock is read every few
    hundred checks rather than every step. *)

module Guard : sig
  type t

  val start : ?default_fuel:int -> Budget.t -> t
  (** Begin enforcement now: the deadline is [now + timeout_s]. The
      effective fuel limit is [budget.fuel], else [default_fuel], else
      unlimited. *)

  val fuel_limit : t -> int
  (** The current effective step limit ([max_int] when unlimited). *)

  val cap_fuel : t -> int -> unit
  (** Lower (never raise) the effective fuel limit — the fuel-drop
      fault. *)

  val space_budget : t -> int option

  val check : t -> steps:int -> output_bytes:int -> abort_reason option
  (** Fuel, deadline and output-cap check for the observation point.
      Space is checked by the caller (the machine collects first and
      judges the live figure, see {!Budget.t.space_words}). The deadline
      is consulted on the first call and then every 256 calls. *)
end

(** {1 Deterministic fault injection} *)

module Fault : sig
  (** A plan is immutable and reusable; {!start} derives the per-run
      cursor (allocation counter, seeded-schedule state). All plans are
      deterministic: the seeded GC schedule is an LCG advanced once per
      step, so a (seed, program) pair always yields the same run. *)
  type plan

  val none : plan
  val is_none : plan -> bool

  val make :
    ?label:string ->
    ?gc_at:int list ->
    ?gc_every:int ->
    ?gc_seed:int ->
    ?fail_alloc:int ->
    ?fuel_drop:int * int ->
    unit ->
    plan
  (** [gc_at] forces a collection before the listed steps; [gc_every k]
      before steps [k], [2k], … (exactly [n] collections per [k*n]
      steps — step 0 never fires); [gc_seed] drives a pseudorandom schedule
      forcing a collection on roughly one step in eight; [fail_alloc n]
      makes the [n]-th store allocation (1-based) raise {!Injected};
      [fuel_drop (s, k)] caps the remaining fuel to [k] more steps once
      step [s] is reached. *)

  val label : plan -> string

  exception Injected of string
  (** Raised by the allocation hook; the machines catch it at the step
      boundary and turn it into [Aborted (Injected_fault _)]. It never
      escapes a [run]. *)

  type cursor

  val start : plan -> cursor

  val force_gc : cursor -> step:int -> bool
  (** Must be called exactly once per step (it advances the seeded
      schedule). *)

  val fuel_drop : cursor -> step:int -> int option
  (** [Some remaining] exactly once, when the drop step is reached. *)

  val observes_alloc : plan -> bool

  val on_alloc : cursor -> unit
  (** Count one allocation; raises {!Injected} on the fated one. *)
end
