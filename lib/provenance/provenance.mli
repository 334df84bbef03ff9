(** Space provenance: the pure data model of a heap census.

    A census decomposes a measured peak — flat [S_X] (Figure 7) or
    linked [U_X] (Figure 8) — into per-(site, phase) word counts that
    sum {e exactly} to the peak. Sites are expanded-AST node ids from
    the annotation pass ({!Tailspace_analysis.Annot.site_id});
    synthetic words that no program expression allocated carry the
    pseudo-site [-1] and are told apart by {!phase}. The machinery that
    {e builds} censuses lives in [Tailspace_core.Census]; this module
    only defines, serializes, renders, and compares them, so it can sit
    below the core value/store layer. *)

module Json = Tailspace_telemetry.Telemetry.Json

(** What kind of words a row counts: why a store cell was allocated
    (env rib, pair, closure, bignum limbs, ...) or which non-store
    component of the configuration the words belong to
    (continuation frame, register environment, control value, Halt,
    pre-run globals). *)
type phase =
  | P_rib
  | P_frame
  | P_pair
  | P_vector
  | P_closure
  | P_escape
  | P_string
  | P_bignum
  | P_atom
  | P_register_env
  | P_control
  | P_halt
  | P_globals
  | P_unreachable

val phase_name : phase -> string

type measure = Flat | Linked | Log

val measure_name : measure -> string
(** ["flat"], ["linked"], ["log"]. [Log] rows are in bit-units (every
    linked charge scaled by the pointer size of the measured store). *)

val unit_name : measure -> string
(** The unit of a census's peak and rows: ["words"], or ["bits"] under
    [Log]. *)

type row = {
  site : int;
  phase : phase;
  words : int;
  cells : int;  (** store cells attributed to the row; 0 for synthetic rows *)
  retained_by : (int * phase) list;
      (** the roots (env / frame / control) whose retainer walk first
          reached a cell of this row *)
}

type stack = { path : (int * phase) list; swords : int }
(** A collapsed flamegraph stack: retainer path, root first. *)

type t = {
  measure : measure;
  peak : int;
  rows : row list;
  stacks : stack list;
  labels : (int * string) list;
      (** advisory site labels (truncated source text); gensym'd names
          can differ between machines that agree structurally *)
}

val total : t -> int
(** Sum of all row words; equal to [peak] by construction — the
    invariant the QCheck suite and the CI smoke step re-check. *)

val label_of : t -> int -> phase -> string
(** The display label of a (site, phase): the recorded source span,
    ["s<id>"] when unlabeled, or ["<phase>"] for synthetic rows. *)

val to_json : ?with_labels:bool -> t -> Json.t

val flamegraph_lines : t -> string list
(** Collapsed-stack lines ([site;site;... words]) for flamegraph.pl or
    speedscope; label characters that would break the syntax are
    flattened to [_]. Lines sum exactly to [peak]. *)

type delta = {
  dsite : int;
  dphase : phase;
  words_a : int;
  words_b : int;
  dlabel : string;
}

val diff : t -> t -> delta list
(** Per-(site, phase) word counts under two censuses of the same
    program, largest absolute delta first — the [--diff I_tail
    I_stack] view that surfaces where a variant parks its extra
    words. *)

val humanize_words : ?unit:string -> int -> string
(** ["482 words"], ["1.2k words"], ["3.4M words"]; [~unit] replaces
    ["words"] (["3.1k bits"]). *)

val percent_delta : from:int -> to_:int -> float
(** Relative growth in percent; [infinity] when growing from zero. *)
