(** How a bounded run ends early, and the forced-collection fault plans.

    Clinger's space consumption (Definitions 21–23) needs every run to
    end in an answer or a stuck state, so every engine bounds its run
    with step fuel; running out is the one structured early end,
    {!abort_reason}. The paper's garbage-collection rule may fire at any
    step, and {!Fault} plans force collections on chosen steps so the
    differential oracle can check that no schedule changes an answer or
    an [Exact] peak.

    The library sits below [Tailspace_core] and depends only on the
    telemetry JSON codec. *)

module Json := Tailspace_telemetry.Telemetry.Json

(** {1 Why a run ended early} *)

type abort_reason =
  | Out_of_fuel of { limit : int }  (** the run took [limit] steps *)

val abort_reason_name : abort_reason -> string
(** Stable short tag: ["out-of-fuel"]. *)

val abort_reason_message : abort_reason -> string
(** One-line human description including the limit. *)

val abort_reason_to_json : abort_reason -> Json.t
(** [{"reason": <tag>, "limit": <steps>}] *)

(** {1 Forced-collection schedules} *)

module Fault : sig
  (** A plan is immutable and reusable; {!start} derives the per-run
      cursor. All plans are deterministic: the seeded schedule is an LCG
      advanced once per step, so a (seed, program) pair always yields
      the same run. *)
  type plan

  val none : plan
  val is_none : plan -> bool

  val make : ?label:string -> ?gc_every:int -> ?gc_seed:int -> unit -> plan
  (** [gc_every k] forces a collection before steps [k], [2k], …
      (exactly [n] collections per [k*n] steps — step 0 never fires);
      [gc_seed] drives a pseudorandom schedule forcing a collection on
      roughly one step in eight. *)

  val label : plan -> string

  type cursor

  val start : plan -> cursor

  val force_gc : cursor -> step:int -> bool
  (** Must be called exactly once per step (it advances the seeded
      schedule). *)
end
