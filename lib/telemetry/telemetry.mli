(** Structured tracing, metrics, and space profiling for the reference
    machines and engines.

    The paper's claims are measurements — peak space per configuration
    (Definition 23), GC behavior (§8), asymptotic growth (Theorems
    25/26) — so the instruments are part of the artifact. This module is
    a zero-dependency event/metrics library threaded through the core
    machines, the collector, both engines, the harness, and the CLI.

    A {!t} always collects cheap counters and high-water marks; event
    streaming ({!sink}), the configuration ring buffer, and the
    space-over-time {!Profile} are opt-in so that a telemetry-less run
    pays nothing and a counters-only run pays a few integer updates per
    step. *)

(** {1 JSON}

    A small self-contained JSON codec: the emitters must not pull in a
    dependency, and the test suite and CI smoke checks need to parse
    what they emit. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; strings are escaped per RFC 8259. *)

  val of_string : string -> (t, string) result
  (** Strict parser for the subset {!to_string} emits (all of JSON
      except exponent-heavy float edge cases round-trip). *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

(** {1 Events} *)

(** What kind of value an allocation created. The classification is a
    telemetry-local enum so this library stays below [Tailspace_core];
    the machines map their value constructors onto it. *)
type alloc_kind =
  | K_atom  (** booleans, symbols, characters, nil, unspecified, ... *)
  | K_int
  | K_string
  | K_pair
  | K_vector
  | K_closure
  | K_escape  (** [call/cc] escape tags *)

val all_alloc_kinds : alloc_kind list
val alloc_kind_name : alloc_kind -> string

(** Why a collection ran. *)
type gc_reason =
  | Gc_peak  (** tracked space exceeded the running peak (lazy schedule) *)
  | Gc_linked  (** pre-observation collection for the linked model *)
  | Gc_final  (** the final configuration's collection *)
  | Gc_forced
      (** a collection no observation asked for: the reference schedule,
          [Run_opts.collect_every_step], runs one before every step, and
          an [I_stack] return under the Algol policy runs one before it
          re-checks a dangling pointer *)

type event =
  | Step of { step : int; space : int; cont_depth : int; store_cells : int }
      (** one machine transition, observed after any collection *)
  | Cont_push of { step : int; depth : int }
      (** continuation depth grew to [depth] *)
  | Cont_pop of { step : int; depth : int }
      (** continuation depth shrank to [depth] *)
  | Alloc of { step : int; kind : alloc_kind; words : int }
      (** a store allocation of [words] flat words (cell + contents) *)
  | Gc_run of { step : int; reason : gc_reason; live : int; freed : int }
      (** a collection that freed [freed] locations, leaving [live] *)
  | Stuck of { step : int; message : string }

type sink = event -> unit
(** Event consumers. A sink sees every event of the categories above the
    moment it is recorded; it must not raise. *)

val jsonl_sink : (string -> unit) -> sink
(** [jsonl_sink write] renders each event as one JSON line (no trailing
    newline; [write] adds its own framing). *)

(** {1 Space-over-time profiles} *)

module Profile : sig
  (** A bounded recorder of (step, space) samples. Sampling keeps every
      [stride]-th step; when [max_samples] is reached the recorder drops
      every other retained sample and doubles the stride, so memory is
      bounded on multi-million-step runs while the profile keeps full
      horizontal coverage. *)

  type t

  val create : ?stride:int -> ?max_samples:int -> unit -> t
  (** Defaults: [stride = 1], [max_samples = 65536]. *)

  val sample : t -> step:int -> space:int -> unit

  val stride : t -> int
  (** The current (possibly doubled) stride. *)

  val samples : t -> (int * int) list
  (** The retained (step, space) pairs, in step order. *)

  val to_csv : t -> string
  (** ["step,space\n" ^ one line per sample]. *)
end

(** {1 Telemetry} *)

type t

val create :
  ?sink:sink ->
  ?config_sink:(int -> string -> unit) ->
  ?ring:int ->
  ?profile:Profile.t ->
  unit ->
  t
(** [ring] is the capacity of the last-K-configurations buffer
    (default [0] = off). [config_sink] receives every (step,
    configuration description) pair the moment it is recorded — the
    streaming analogue of the ring buffer. *)

(** {2 Recording} (called by the machines; cheap) *)

val record_step :
  t -> step:int -> space:int -> cont_depth:int -> store_cells:int -> unit
(** Updates the step counter, peak space, store high-water mark, and the
    continuation-depth high-water mark; derives [Cont_push]/[Cont_pop]
    events from the depth delta; feeds the profile; emits [Step]. *)

val record_alloc : t -> step:int -> kind:alloc_kind -> words:int -> unit
val record_gc : t -> step:int -> reason:gc_reason -> live:int -> freed:int -> unit
val record_stuck : t -> step:int -> message:string -> unit

val wants_config : t -> bool
(** Whether {!record_config} would observe anything (ring enabled or a
    [config_sink] installed) — lets the machine skip describing
    configurations otherwise. *)

val record_config : t -> step:int -> string Lazy.t -> unit
(** Records a one-line configuration description. The [config_sink]
    (if any) gets it rendered at once; the ring buffer keeps it lazy and
    {!ring_contents} forces it on read, so a ring that is never read
    renders nothing. The description must therefore depend only on the
    state at [step]. *)

val note_steps : t -> int -> unit
(** Force the step counter (the machines call this once at the end so the
    summary agrees exactly with the result's step count). *)

val note_peak : t -> int -> unit
val note_linked : t -> int -> unit
val note_log : t -> int -> unit

(** {2 Reading} *)

val steps : t -> int
val gc_runs : t -> int
val alloc_count : t -> alloc_kind -> int
val max_cont_depth : t -> int
val peak_space : t -> int

val ring_contents : t -> (int * string) list
(** The retained (step, configuration description) pairs, oldest first;
    at most [ring] of them. This is the trace dumped when a run gets
    stuck. *)

(** {1 Run summaries} *)

type summary = {
  steps : int;
  gc_runs : int;
  gc_freed : int;  (** total locations freed across all collections *)
  allocations : (alloc_kind * int) list;  (** nonzero kinds, fixed order *)
  alloc_words : int;
  max_cont_depth : int;
  cont_pushes : int;
  cont_pops : int;
  store_hwm : int;  (** store-size high-water mark, in cells *)
  peak_space : int;  (** flat model *)
  peak_linked : int option;  (** linked model, when measured *)
  peak_log : int option;  (** log model (bit-units), when measured *)
  stuck : string option;
}

val summary : t -> summary

val merge_summaries : summary list -> summary
(** Combine the summaries of independent runs (e.g. one per sweep point,
    each measured on its own worker) into a fleet view: counters
    ([steps], [gc_runs], [gc_freed], per-kind [allocations],
    [alloc_words], [cont_pushes], [cont_pops]) sum; high-water marks
    ([max_cont_depth], [store_hwm], [peak_space], [peak_linked],
    [peak_log]) take the maximum, with the optional peaks [None] only when unmeasured
    everywhere; [stuck] keeps the first [Some] in list order. The empty
    list merges to the all-zero summary. *)

val summary_to_json : summary -> Json.t
