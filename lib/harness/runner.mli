(** Measurement driver: run (program, input N, machine variant) and
    collect Definition 23's space consumption. *)

module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience
module Pool = Tailspace_parallel.Pool

type status =
  | Answer of string
  | Stuck of string
  | Aborted of Resilience.abort_reason
      (** the resource governor ended the run; the old [Fuel] status is
          now [Aborted (Out_of_fuel _)] *)

type measurement = {
  n : int;
  space : int;  (** [S_X(P, N)] = [|P|] + peak, flat model *)
  peaks : (Space_model.t * int) list;
      (** measured peak per requested model (without the [|P|] term),
          in {!Space_model.all} order; models that were not requested
          for this point are simply absent *)
  steps : int;
  status : status;
  gc_runs : int;  (** collections that actually freed something *)
  summary : Telemetry.summary option;
      (** full telemetry summary when [collect_telemetry] was set *)
}

val peak_of : measurement -> Space_model.t -> int option
(** The measured peak under one model, [None] when it was not
    requested for this point. *)

val peak_space : measurement -> int
(** The flat peak alone, without the [|P|] term ([0] on the fast VM
    tier, which compiles accounting out). *)

val peak_linked : measurement -> int option
val peak_log : measurement -> int option

val consumption : measurement -> Space_model.t -> int option
(** Definition 23's consumption under one model, program term included:
    [Flat] gives [space] itself; [Linked] gives [U_X] = linked peak +
    [|P|]; [Log] gives the log peak + [64·|P|] (the static program is
    charged at full machine words). [None] when the model was not
    measured. *)

val input_expr : int -> Tailspace_ast.Ast.expr
(** [(quote N)]. *)

val run_once :
  ?opts:Machine.Run_opts.t ->
  ?collect_telemetry:bool ->
  ?config:Machine.Config.t ->
  program:Tailspace_ast.Ast.expr ->
  n:int ->
  unit ->
  measurement
(** Build a fresh engine from [config] (default
    {!Machine.Config.default}) and measure one (program, input) point
    under [opts] (default {!Machine.Run_opts.default}). The engine is
    [config.engine]: the stepper, or the fast VM, whose space columns
    are [0]/absent — the tier compiles accounting out.
    [collect_telemetry] (default [false]) attaches a fresh telemetry
    instance to the run — overriding any instance in [opts], which must
    not be shared across parallel points — and stores its summary in the
    measurement. *)

val sweep :
  ?pool:Pool.t ->
  ?opts:Machine.Run_opts.t ->
  ?collect_telemetry:bool ->
  ?config:Machine.Config.t ->
  program:Tailspace_ast.Ast.expr ->
  ns:int list ->
  unit ->
  measurement list
(** Every input runs on a fresh machine instance, so each point is
    exactly {!run_once} of that input: results are independent of sweep
    order, of the [pool]'s job count, and of machine state (notably the
    RNG) left behind by earlier inputs. With a [pool], points are
    measured concurrently and returned in input order — the table is
    byte-identical to the serial one. *)

(** {1 The crash-proof sweep supervisor}

    A sweep over a family built to blow up space will hit its limits;
    the supervisor turns every way a point can fail into a row of the
    partial table instead of a dead process. *)

type supervised_point = {
  measurement : measurement;  (** the last attempt's measurement *)
  attempts : int;
  note : string option;
      (** degradation note: why the point failed, or that it needed
          retries — [None] for a clean first-attempt answer *)
}

type supervised = {
  points : supervised_point list;  (** one per requested input, in order *)
  answered : int;
  degraded : int;  (** points whose final status is not [Answer] *)
}

val sweep_supervised :
  ?pool:Pool.t ->
  ?opts:Machine.Run_opts.t ->
  ?collect_telemetry:bool ->
  ?config:Machine.Config.t ->
  ?max_attempts:int ->
  ?fuel_factor:int ->
  ?fuel_cap:int ->
  ?initial_fuel:int ->
  program:Tailspace_ast.Ast.expr ->
  ns:int list ->
  unit ->
  supervised
(** Run every input under [opts]'s budget. A point that runs out of fuel
    is retried with the fuel multiplied by [fuel_factor] (default 4), up
    to [max_attempts] (default 3) attempts or the [fuel_cap] (default
    50M steps) — capped exponential backoff. Other aborts (space budget,
    deadline, output cap, injected fault) are terminal for the point:
    more fuel cannot help. Exceptions escaping a run are caught and
    recorded as [Aborted (Crashed _)]. The first attempt's fuel is
    [opts.budget]'s fuel when set, else [initial_fuel] (default 1M
    steps); [opts.fuel] is ignored (the supervisor owns the fuel
    schedule). Always returns the full table: failed points carry their
    abort reason in the measurement status and a human note.

    Points run on fresh machines (one per attempt) and are independent,
    so [pool] behaves exactly as in {!sweep}. *)

val spaces : measurement list -> (int * int) list
(** [(n, space)] pairs of the successful measurements. *)

val spaces_for : Space_model.t -> measurement list -> (int * int) list
(** [(n, consumption)] pairs of the successful measurements under one
    model. Points that did not measure the model are omitted (not
    errors): a partially-measured supervised sweep degrades to the
    points that have the data. *)

val linked_spaces : measurement list -> (int * int) list
(** [spaces_for Linked]. *)

val log_spaces : measurement list -> (int * int) list
(** [spaces_for Log]. *)

val all_answered : measurement list -> bool
