(** How a bounded run ends early.

    Clinger's space consumption (Definitions 21–23) needs every run to
    end in an answer or a stuck state, so every engine bounds its run
    with step fuel; running out is the one structured early end,
    {!abort_reason}. The schedule that collects before every step,
    Definition 21's reference, is [Machine.Run_opts.collect_every_step].

    The library sits below [Tailspace_core] and depends only on the
    telemetry JSON codec. It is kept apart from [Machine] only because
    the benchmark names [abort_reason_message] here. *)

module Json := Tailspace_telemetry.Telemetry.Json

type abort_reason =
  | Out_of_fuel of { limit : int }  (** the run took [limit] steps *)

val abort_reason_name : abort_reason -> string
(** Stable short tag: ["out-of-fuel"]. *)

val abort_reason_message : abort_reason -> string
(** One-line human description including the limit. *)

val abort_reason_to_json : abort_reason -> Json.t
(** [{"reason": <tag>, "limit": <steps>}] *)
