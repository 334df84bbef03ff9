(** The family of reference implementations (§§7-10) and the space
    consumption measurement of §12.

    A machine is a {!variant} plus policies resolving the semantics'
    nondeterminism (argument evaluation order [pi], the [I_stack]
    deletion set [A], the [random] seed). {!exec} runs a space-efficient
    computation (Definition 21): the garbage-collection rule is applied
    as required, and the reported peak is exactly
    [sup {space(C_i)}] over the computation — the lazy collection
    schedule never lets garbage inflate the peak (a collection runs
    whenever the tracked space would exceed the running peak, unless the
    transition rules prove the configuration holds no garbage).
    [Run_opts.collect_every_step] runs Definition 21 literally instead,
    collecting before every step; tier-1 holds the lazy schedule's
    figures to that run.

    The space consumption of Definition 23 is [|P| + peak]; {!exec}
    reports both parts.

    Each machine keeps one {!Tailspace_analysis.Annot} table: the
    [I_free]/[I_sfs] rules read their free-variable sets from it, and
    the provenance census its site ids. Every expression is recorded
    there before the machine steps it. *)

type variant = Tail | Gc | Stack | Evlis | Free | Sfs

val all_variants : variant list
val variant_name : variant -> string
(** ["tail"], ["gc"], ["stack"], ["evlis"], ["free"], ["sfs"]. *)

val variant_of_name : string -> variant option

(** Argument evaluation order: the paper's nondeterministic permutation
    [pi], resolved by policy. *)
type perm_policy =
  | Left_to_right
  | Right_to_left
  | Seeded of int
      (** a Fisher-Yates shuffle per call, drawn from a generator
          restarted from this seed at every run: the order depends on
          the seed alone, not on [Config.seed] nor on earlier runs *)

(** How [I_stack] chooses the deletion set [A] at each call.
    [Algol] deletes every location bound by the call and reports a
    dangling pointer (stuck) if the side condition fails — Algol-like
    stack allocation, which §8 notes determines [S_stack]. [Safe_deletion]
    deletes the maximal subset that satisfies the side condition. *)
type stack_policy = Algol | Safe_deletion

(** Ablation toggle (experiment E8): which environment [I_gc]/[I_stack]
    return frames capture. [Closure_env] (default) is the reading under
    which Theorem 25's first separation holds; [Register_env] is the
    literal [rho'] of the typeset rule, under which a tail call's frame
    pins the caller's locals and S_gc degenerates to S_stack's growth.
    See DESIGN.md, "Faithfulness notes". *)
type return_env = Closure_env | Register_env

(** Which execution tier runs the program. [Stepper] is the small-step
    reference interpreter (this module's {!exec}), the only engine that
    measures space, and the only one the CLI and the harness run;
    [Vm_fast] is the bytecode VM with accounting compiled out (answers
    only), which lives in [Tailspace_vm.Vm] and which only the repo
    benchmark's answer reference selects. *)
type engine = Stepper | Vm_fast

(** The full identity of a machine: every knob {!create_with} consumes,
    as one first-class record. Two machines built from equal configs
    behave identically. *)
module Config : sig
  type t = {
    variant : variant;
    perm : perm_policy;
    stack_policy : stack_policy;
    return_env : return_env;
    evlis_drop_at_creation : bool;
        (** second E8 ablation toggle: when [false], [I_evlis] only
            drops the environment in the printed §9 push rules, so
            nullary calls retain it and the tail/evlis separation
            fails *)
    seed : int;
        (** LCG seed for [random] only, restarted at every run, so two
            runs of one machine answer alike; a [Seeded s] order draws
            from [s] *)
    engine : engine;
        (** which execution tier runs this config: [Tailspace_vm.Vm]
            requires [Vm_fast], and [create_with] always builds the
            stepper state *)
  }

  val default : t
  (** [Tail], [Left_to_right], [Safe_deletion], [Closure_env], [true],
      seed 24054, [Stepper] engine. *)

  val make :
    ?variant:variant ->
    ?perm:perm_policy ->
    ?stack_policy:stack_policy ->
    ?return_env:return_env ->
    ?evlis_drop_at_creation:bool ->
    ?seed:int ->
    ?engine:engine ->
    unit ->
    t
  (** {!default} with the given fields replaced. *)
end

type t

val create_with : Config.t -> t
(** A machine with its initial environment and store ([rho_0]/[sigma_0],
    §12): primitives plus a Scheme-level prelude (list and vector
    utilities) evaluated under this machine's own variant. *)

val variant : t -> variant

val config : t -> Config.t
(** The configuration this machine was built with. *)

val annotations : t -> Tailspace_analysis.Annot.t option
(** The machine's annotation table: always [Some]. It is the only
    source of the [I_free]/[I_sfs] free-variable sets and of the site
    ids, and the machine records every expression in it before stepping
    it. *)

val initial : t -> Types.Env.t * Store.t
(** The machine's [rho_0] and [sigma_0] (primitives + prelude), e.g. for
    alternative evaluators over the same value domain. *)

val prelude_source : string
(** The Scheme source of the prelude evaluated into [rho_0]/[sigma_0] —
    alternative engines with their own value domain (the fast VM tier)
    compile the same definitions so the observable library is
    identical. *)

type outcome =
  | Done of { value : Types.value; store : Store.t; answer : string }
      (** final configuration; [answer] per Definition 11 *)
  | Stuck of string
      (** no rule applies: program error, or an [I_stack] dangling
          pointer *)
  | Aborted of {
      reason : Tailspace_resilience.Resilience.abort_reason;
      steps : int;
      peak_space : int;
    }
      (** the run used up its fuel ({!Run_opts.t.fuel} steps) *)

type result = {
  outcome : outcome;
  steps : int;
  peaks : (Space_model.t * int) list;
      (** [sup space(C_i)] under every requested model, in canonical
          model order, excluding the [|P|] term. [Flat] (Figure 7) is
          always present; [Linked] (Figure 8) and [Log] (pointer-size
          bits) appear when requested via [Run_opts.measure] *)
  program_size : int;  (** [|P|]: AST nodes of the expression run *)
  gc_runs : int;
  output : string;  (** whatever [display]/[write]/[newline] emitted *)
}

val peak_of : result -> Space_model.t -> int option
(** The measured peak under a model, [None] when not requested. *)

val peak_space : result -> int
(** The flat-model peak — always measured, so total. *)

val peak_linked : result -> int option
(** [peak_of r Linked]: the linked-model peak, when requested. *)

val peak_log : result -> int option
(** [peak_of r Log]: the log-model peak in bit-units, when requested. *)

val space_consumption : result -> int
(** [|P| + peak]: Definition 23's [S_X(P, D)] for the executed
    computation, in the flat model. *)

val alloc_kind_of_value :
  Types.value -> Tailspace_telemetry.Telemetry.alloc_kind
(** Telemetry classification of an allocated value (shared with the
    alternative engines so allocation counters are comparable). *)

(** Everything that parameterizes one measured run, as a record — the
    run-time mirror of {!Config}. *)
module Run_opts : sig
  type t = {
    fuel : int;
        (** the run bound: a run that reaches this many steps ends with
            [Aborted (Out_of_fuel _)], never an unbounded loop (default
            20 million steps) *)
    collect_every_step : bool;
        (** Definition 21's literal schedule: collect before every step,
            whether or not the lazy schedule would (recorded with reason
            [Gc_forced]). The figures must equal the lazy schedule's;
            tier-1 runs it as the reference (test_machine "skipped
            collections"). Default [false] *)
    measure : Space_model.t list;
        (** the space-accounting models to measure (normalized: sorted,
            deduplicated, always containing [Flat]). [Linked] or [Log]
            force a collection at every step not proved garbage-free
            (slower); [Flat] alone uses the lazy schedule, which
            collects only when tracked space would set a new peak *)
    telemetry : Tailspace_telemetry.Telemetry.t option;
        (** observes the whole run: per-step counters and high-water
            marks, collection events with live/freed counts and trigger
            reason, an optional event stream and configuration sink, a
            bounded ring buffer of recent configurations (the trace to
            dump when a run gets {!Stuck}), and an optional
            space-over-time profile. A run without telemetry pays
            nothing beyond an [is-None] branch per step *)
    provenance : Census.t option;
        (** space-provenance census: tag every allocation with its
            allocation site, thread site ids through continuation
            frames, and stash the exact peak configurations so
            {!Census.flat_census}/{!Census.linked_census} can decompose
            the measured peaks per site afterwards. The linked and log
            stashes require the corresponding model in [measure].
            Sites are bookkeeping — answers, steps, and peaks are
            unchanged (test_provenance "census sums to measured peak"
            checks the censuses sum to the peaks exactly) *)
  }

  val default : t

  val make :
    ?fuel:int ->
    ?collect_every_step:bool ->
    ?measure:Space_model.t list ->
    ?telemetry:Tailspace_telemetry.Telemetry.t ->
    ?provenance:Census.t ->
    unit ->
    t
  (** {!default} with the given fields replaced. [measure] is
      normalized (see {!Space_model.normalize}). *)
end

val exec : ?opts:Run_opts.t -> t -> Tailspace_ast.Ast.expr -> result
(** Evaluate an expression from the initial configuration under
    [opts] (default {!Run_opts.default}). *)

val exec_program :
  ?opts:Run_opts.t ->
  t ->
  program:Tailspace_ast.Ast.expr ->
  input:Tailspace_ast.Ast.expr ->
  result
(** §12's convention: [program] evaluates to a procedure of one argument,
    which is applied to [input]; runs [(program input)]. *)

val exec_string : ?opts:Run_opts.t -> t -> string -> result
(** Parse and expand a whole program (see
    {!Tailspace_expander.Expand.program}) and run it. *)

val eval_global : t -> Tailspace_ast.Ast.expr -> (Types.value * Store.t, string) Result.t
(** Evaluate under the initial environment without measurement
    (used by tests and the prelude loader). *)

val define_global : t -> string -> Tailspace_ast.Ast.expr -> (unit, string) Result.t
(** Evaluate and install a new global binding (top-level [define]
    semantics: the name is in scope during the evaluation, so recursive
    procedure definitions work). Mutates the machine's initial state. *)
