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
  | Aborted of Resilience.abort_reason  (** the run used up its fuel *)

type measurement = {
  n : int;
  space : int;
      (** [S_X(P, N)] = [|P|] + peak, flat model; [|P|] alone, or 0,
          when the point measured no peak (a fast-VM point): print
          {!consumption} instead, which is [None] there *)
  peaks : (Space_model.t * int) list;
      (** measured peak per requested model (without the [|P|] term),
          in {!Space_model.all} order; models that were not requested
          for this point are simply absent, and a fast-VM point has
          none *)
  steps : int;
  status : status;
  gc_runs : int;  (** collections that actually freed something *)
  summary : Telemetry.summary option;
      (** full telemetry summary when [collect_telemetry] was set *)
}

val status_text : measurement -> string
(** ["answer:<answer>"], ["stuck:<message>"] or ["aborted:<reason>"]
    ({!Resilience.abort_reason_name}): the status line of the oracle's
    comparisons, the [faults] matrix and the [spaceprof] JSON. *)

val peak_of : measurement -> Space_model.t -> int option
(** The measured peak under one model, [None] when it was not
    requested for this point. *)

val peak_space : measurement -> int
(** The flat peak alone, without the [|P|] term ([0] when the point
    measured none: see {!peak_of}). *)

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

val spaces : measurement list -> (int * int) list
(** [(n, space)] pairs of the successful measurements. *)

val spaces_for : Space_model.t -> measurement list -> (int * int) list
(** [(n, consumption)] pairs of the successful measurements under one
    model. Points that did not measure the model are omitted (not
    errors), so a partially-measured sweep degrades to the points that
    have the data. *)

val all_answered : measurement list -> bool
