(** The paper's evaluation, experiment by experiment.

    Each experiment exposes a [run] returning structured data — the test
    suite asserts the paper's claims on it — and a [render] producing the
    table that [schemesim report] prints. The experiment ids match
    DESIGN.md's per-experiment index. *)

module Machine = Tailspace_core.Machine
module Tail_calls = Tailspace_analysis.Tail_calls
module Pool = Tailspace_parallel.Pool

(** Every measuring experiment takes an optional [pool]; its leaf
    measurements (one per sweep point, each on a fresh machine) then fan
    out over the worker domains and are re-joined in submission order,
    so the structured results — and hence the rendered tables — are
    byte-identical with and without a pool. Program expansion always
    happens in the calling domain. *)

type verdict = {
  claim : string;
  x : float option;  (** growth exponent of the series claimed to grow faster *)
  y : float option;  (** growth exponent of the series it is compared with *)
  holds : bool;  (** [Growth.separates x y]; for a bound, [Growth.bounded x] *)
}
(** One separation verdict of E2, E8 or E10, with the two exponents it
    was decided on. *)

(** {1 E1 — Figure 2: static frequency of tail calls} *)
module Fig2 : sig
  type row = { name : string; counts : Tail_calls.counts }

  val run : unit -> row list
  (** Statistics over the whole corpus, plus a total row computed by the
      caller via {!total}. *)

  val total : row list -> Tail_calls.counts
  val render : row list -> string
end

(** {1 E2 — Theorem 25 / Figure 6: the proper-inclusion separations} *)
module Thm25 : sig
  type cell = {
    variant : Machine.variant;
    spaces : (int * int) list;  (** (N, S) for successful runs *)
    exponent : float option;
        (** {!Growth.exponent_over} the grid: [None] when unresolved,
            or when some point did not answer *)
  }

  type sweep = { separator : string; ns : int list; cells : cell list }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?fuel:int ->
    unit ->
    sweep list
  (** One sweep per separating program, all six variants each, at N =
      20 to 320 by default. When [fuel] is given every point runs under
      it; a point that runs out drops out of [spaces], prints as ["-"]
      and leaves its cell's exponent unresolved, so no claim on that
      cell holds. *)

  val claims : sweep list -> verdict list
  (** Theorem 25's nine claims: eight separations ("stack/gc: S_stack
      separates from S_gc", ...) and "gc/tail: S_tail bounded", whose
      [y] is 0. *)

  val render : sweep list -> string
end

(** {1 E3 — Theorem 24: pointwise inequalities} *)
module Thm24 : sig
  type row = {
    name : string;
    n : int;
    s : (Machine.variant * int) list;  (** S_X per variant that answered *)
    chain_ok : bool;
        (** S_tail <= S_gc <= S_stack, S_sfs <= S_evlis <= S_tail,
            S_sfs <= S_free <= S_tail; false when some variant did not
            answer *)
  }

  val run :
    ?pool:Pool.t -> ?include_slow:bool -> unit -> row list

  val render : row list -> string
end

(** {1 E4 — Theorem 26 / §13: flat versus linked environments} *)
module Thm26 : sig
  type row = {
    n : int;
    u_tail : int option;  (** U_tail(P_N, N): linked model on I_tail *)
    s_tail : int option;  (** S_tail(P_N, N): flat model on I_tail *)
    s_sfs : int option;
        (** S_sfs(P_N, N); each figure [None] when its run did not
            answer ({!Runner.answered}) *)
  }

  type result = {
    rows : row list;
    u_tail_exponent : float option;
        (** {!Growth.exponent_over} the grid: [None] when unresolved, or
            when some point did not answer, so a starved sweep degrades
            the table instead of raising *)
    s_sfs_exponent : float option;
  }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?fuel:int ->
    unit ->
    result
  (** At N = 10, 20, 40, 80 by default. *)

  val render : result -> string
  (** The table, and whether S_sfs separates from U_tail. *)
end

(** {1 E5 — §4: find-leftmost} *)
module Sec4 : sig
  type row = {
    spine : string;  (** "right" or "left" *)
    variant : Machine.variant;
    deltas : (int * int) list;
        (** (N, S_traverse - S_build): traversal overhead net of the
            tree data *)
    exponent : float option;
        (** {!Growth.exponent_over} the grid: [None] when some point of
            either sweep did not answer *)
  }

  val run : ?pool:Pool.t -> ?ns:int list -> unit -> row list
  val render : row list -> string
end

(** {1 E6 — Corollary 20: all machines compute the same answers} *)
module Cor20 : sig
  type row = {
    name : string;
    n : int;
    answers : (Machine.variant * string) list;  (** answer or stuck text *)
    agree : bool;
  }

  val run :
    ?pool:Pool.t -> ?include_slow:bool -> unit -> row list

  val render : row list -> string
end

(** {1 E7 — §1/§4: continuation-passing style runs in bounded space} *)
module Cps : sig
  type result = {
    ns : int list;
    tail : (int * int) list;
    gc : (int * int) list;
    tail_exponent : float option;
        (** {!Growth.exponent_over} the grid: [None] when unresolved, or
            when some point did not answer *)
    gc_exponent : float option;
  }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?fuel:int ->
    unit ->
    result

  val render : result -> string
end

(** {1 E8 — ablations of the disambiguation choices (DESIGN.md)} *)
module Ablation : sig
  type sweep = {
    label : string;
    spaces : (int * int) list;  (** (N, S) *)
    exponent : float option;  (** {!Growth.exponent_over} the grid *)
  }

  type result = {
    ns : int list;
    return_env_rows : sweep list;
        (** separator 1 under I_gc/I_stack, faithful vs literal frames *)
    return_env_verdicts : verdict list;
        (** S_stack against S_gc: faithful frames, then literal *)
    evlis_rows : sweep list;
        (** separator 3 under I_tail/I_evlis, with and without the
            drop-at-creation rule *)
    evlis_verdicts : verdict list;
        (** S_tail against S_evlis: faithful evlis, then literal *)
  }

  val run : ?pool:Pool.t -> ?ns:int list -> unit -> result
  (** At N = 20 to 320 by default. *)

  val render : result -> string
end

(** {1 E9 — §14 sanity check: classifying real implementations} *)
module Sanity : sig
  (** §14 observes that the formal definition should coincide with the
      community's judgement of which implementations are properly tail
      recursive. This experiment applies Definition 5 empirically to two
      executable implementations that are {e not} reference machines —
      the tail-recursive SECD machine and the classic SECD machine
      (lib/engines) — plus the reference [I_gc] as a known-improper
      control: an implementation passes iff no program of a battery
      separates its live space from [S_tail] ({!Growth.separates}). *)

  type cell = {
    program : string;
    failed : bool;  (** some run of either sweep did not answer *)
    engine_exponent : float option;
        (** growth exponent of the implementation's live space, [None]
            when some run did not answer ({!Growth.exponent_over}) *)
    tail_exponent : float option;  (** likewise, of [S_tail] *)
  }

  type row = {
    engine : string;
    cells : cell list;
    properly_tail_recursive : bool;
        (** every cell passes: both exponents resolved (so no run
            failed), and the implementation does not separate from
            [S_tail] *)
  }

  type result = { ns : int list; rows : row list }

  val run : ?pool:Pool.t -> ?ns:int list -> unit -> result
  val render : result -> string
end

(** {1 E10 — the space hierarchy under the logarithmic model} *)
module LogHier : sig
  (** Re-runs the Theorem 24/25/26 separations with all three space
      models measured and reports which strict inclusions survive
      pointer-size (log) accounting — the [Space_model.Log] measure
      re-prices every linked unit at [ceil(log2 |store|)] bits, a
      factor that grows with the live store. *)

  type result = {
    ns : int list;
    pairs : verdict list;
        (** Theorem 25's four adjacent separations, each claimed by its
            separator family's name (["x/y"]) and decided on [Log_x]
            against [Log_y]; [holds] reads "survives" *)
    chain_rows : (string * bool) list;
        (** Theorem 24's pointwise chain re-checked on Log consumption
            per corpus program — not implied by the flat chain, since
            each variant's figures are scaled by its own store's
            pointer size; a point that did not answer fails its row *)
    pk_ns : int list;  (** {!Thm26}'s default N *)
    thm26 : verdict;
        (** Theorem 26's own separation on [P_N]: flat [S_sfs] against
            [Log_tail] *)
  }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?fuel:int ->
    unit ->
    result
  (** At N = 20 to 160 by default: every point measures Linked and Log,
      whose walk runs on every step. *)

  val render : result -> string
end

val render_all : ?pool:Pool.t -> unit -> string
(** Every experiment's table, in order — the paper-reproduction report
    that [schemesim report all] prints. *)
