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
      (** [S_X(P, N)] = [|P|] + peak, flat model; for a point that did
          not answer, the peak so far (see {!answered}) *)
  peaks : (Space_model.t * int) list;
      (** measured peak per requested model (without the [|P|] term),
          in {!Space_model.all} order: [Flat] always, and the models
          that were not requested for this point are absent *)
  steps : int;
  status : status;
  gc_runs : int;  (** collections that actually freed something *)
  summary : Telemetry.summary option;
      (** full telemetry summary when [collect_telemetry] was set *)
}

val status_text : measurement -> string
(** ["answer:<answer>"], ["stuck:<message>"] or ["aborted:<reason>"]
    ({!Resilience.abort_reason_name}): the status field of the
    [spaceprof] JSON. *)

val peak_of : measurement -> Space_model.t -> int option
(** The measured peak under one model, [None] when it was not
    requested for this point. *)

val peak_space : measurement -> int
(** The flat peak alone, without the [|P|] term. *)

val peak_linked : measurement -> int option
val peak_log : measurement -> int option

val consumption : measurement -> Space_model.t -> int option
(** Definition 23's consumption under one model, program term included:
    [Flat] gives [space] itself; [Linked] gives [U_X] = linked peak +
    [|P|]; [Log] gives the log peak + [64·|P|] (the static program is
    charged at full machine words). [None] when the model was not
    measured; never for [Flat]. *)

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
(** Build a fresh machine from [config] (default
    {!Machine.Config.default}) and measure one (program, input) point
    under [opts] (default {!Machine.Run_opts.default}) on the stepper,
    {!Machine.exec_program}. [collect_telemetry] (default [false])
    attaches a fresh telemetry instance to the run — overriding any
    instance in [opts], which must not be shared across parallel points
    — and stores its summary in the measurement. *)

(** {1 Grids}

    Every table of the report is a list of points plus a function of
    their measurements. A grid is both, so tables combine into one grid
    whose distinct points are measured once. *)

type point = {
  source : string;
      (** program text, §12's procedure of one argument; the lookup key
          (two expansions of one source differ in gensym names) *)
  config : Machine.Config.t;
  models : Space_model.t list;  (** normalized ({!Space_model.normalize}) *)
  fuel : int;
  n : int;
}

val point :
  ?config:Machine.Config.t ->
  ?models:Space_model.t list ->
  ?fuel:int ->
  string ->
  int ->
  point
(** [point source n], on {!Machine.Config.default}, measuring [Flat]
    alone, under {!Machine.Run_opts.default}'s fuel unless given. *)

val measure :
  ?pool:Pool.t ->
  ?collect_telemetry:bool ->
  point list ->
  point ->
  measurement
(** [measure points] expands each distinct source once in the calling
    domain, runs each distinct point once ({!run_once} on a fresh
    machine) over the [pool], and returns the lookup of a point's
    measurement; it raises [Not_found] for a point not in [points]. A
    figure depends only on its point, so the lookup is the same whatever
    the job count and whatever other points share the grid. This is how
    every machine point of the report reaches the pool. *)

type 'a grid = {
  points : point list;  (** may repeat a point: {!measure} runs it once *)
  read : (point -> measurement) -> 'a;
      (** the result, from the lookup of every point in [points] *)
}

val one : point -> measurement grid
val map : ('a -> 'b) -> 'a grid -> 'b grid
val all : 'a grid list -> 'a list grid
val ( let+ ) : 'a grid -> ('a -> 'b) -> 'b grid
val ( and+ ) : 'a grid -> 'b grid -> ('a * 'b) grid

val run : ?pool:Pool.t -> 'a grid -> 'a
(** [g.read (measure g.points)]. *)

val sweep :
  ?pool:Pool.t ->
  ?collect_telemetry:bool ->
  (int -> point) ->
  int list ->
  measurement list
(** The one-series case: [sweep at ns] measures [at n] for each input
    of [ns], in order; for instance [sweep (point ~config source) ns].
    [collect_telemetry] as in {!run_once}. *)

val answered : measurement -> Space_model.t -> int option
(** {!consumption} of a point that answered; [None] when the point got
    stuck or ran out of fuel, since its partial peak is no [S_X(P, N)].
    The only figure a table or a verdict reads from a point. *)

val all_answered : measurement list -> bool
