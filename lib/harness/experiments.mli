(** The paper's evaluation, experiment by experiment.

    Each measuring experiment is a {!Runner.grid}: a list of points
    (program source, machine configuration, models, fuel, N) and its
    result as a function of their measurements; [Runner.run] measures it
    alone, and {!report} measures the union of the tables it prints,
    each distinct point once (E6 reads E3's runs, E8's faithful series
    E2's, E7 E9's cps-loop runs). Every point runs on a fresh machine
    and the grid expands each source once in the calling domain, so a
    table is byte-identical alone or in [report all], with or without a
    pool. Each result has a [render] producing the table that
    [schemesim report] prints; the test suite asserts the paper's claims
    on the results. The experiment ids match DESIGN.md's per-experiment
    index. *)

module Machine = Tailspace_core.Machine
module Tail_calls = Tailspace_analysis.Tail_calls
module Pool = Tailspace_parallel.Pool

(** How a verdict reads: [Unresolved] when it fails only for want of a
    figure (a point that did not answer) or an exponent
    ({!Growth.exponent_over}); the report prints ["unresolved"] then,
    never the negative finding. *)
type ruling = Holds | Fails | Unresolved

type verdict = {
  claim : string;
  x : float option;  (** growth exponent of the series claimed to grow faster *)
  y : float option;  (** growth exponent of the series it is compared with *)
  ruling : ruling;
      (** [Growth.separates x y] (for a bound, [Growth.bounded x]),
          [Unresolved] when [x] or [y] is *)
}
(** One separation verdict of E2, E4, E8 or E10, with the two exponents
    it was decided on. *)

(** One row of a series table: E2, E4, E5, E7, E8 and E9 read their
    figures as series. *)
type series = {
  label : string list;  (** the row's label cells *)
  figures : (int * int option) list;
      (** [(N, figure)] per N of the grid, [None] for a point that did
          not answer ({!Runner.answered}) *)
  exponent : float option;
      (** {!Growth.exponent_over} the grid: [None] when unresolved, or
          when some point did not answer *)
}

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
  val grid :
    ?ns:int list -> ?fuel:int -> unit -> (string * series list) list Runner.grid
  (** Per separating program, its name and one series per variant, at
      N = 20 to 320 by default. When [fuel] is given every point runs
      under it; a point that runs out prints as ["-"] and leaves its
      series' exponent unresolved. *)

  val claims : (string * series list) list -> verdict list
  (** Theorem 25's nine claims: eight separations ("stack/gc: S_stack
      separates from S_gc", ...) and "gc/tail: S_tail bounded", whose
      [y] is 0. *)

  val render : (string * series list) list -> string
end

(** {1 E3 — Theorem 24: pointwise inequalities} *)
module Thm24 : sig
  type row = {
    name : string;
    n : int;
    s : (Machine.variant * int) list;  (** S_X per variant that answered *)
    chain : ruling;
        (** S_tail <= S_gc <= S_stack, S_sfs <= S_evlis <= S_tail,
            S_sfs <= S_free <= S_tail; [Unresolved] when no inequality
            fails but some variant did not answer *)
  }

  val grid : unit -> row list Runner.grid
  (** Every non-slow corpus entry at its first checked input. *)

  val render : row list -> string
end

(** {1 E4 — Theorem 26 / §13: flat versus linked environments} *)
module Thm26 : sig
  type result = {
    u_tail : series;  (** U_tail(P_N, N): linked model on I_tail *)
    s_tail : series;  (** S_tail(P_N, N): flat model on I_tail *)
    s_sfs : series;  (** S_sfs(P_N, N) *)
  }

  val grid : ?ns:int list -> ?fuel:int -> unit -> result Runner.grid
  (** At N = 10, 20, 40, 80 by default. *)

  val render : result -> string
  (** The table, and whether S_sfs separates from U_tail. *)
end

(** {1 E5 — §4: find-leftmost} *)
module Sec4 : sig
  val grid : ?ns:int list -> unit -> series list Runner.grid
  (** Per spine ("right", "left") and variant (tail, gc, stack), the
      series of S_traverse - S_build: traversal overhead net of the tree
      data, labelled [[spine; variant]]. *)

  val render : series list -> string
end

(** {1 E6 — Corollary 20: all machines compute the same answers} *)
module Cor20 : sig
  type row = {
    name : string;
    n : int;
    answers : (Machine.variant * string) list;  (** answer or stuck text *)
    agree : bool;
  }

  val grid : unit -> row list Runner.grid
  (** E3's points. *)

  val render : row list -> string
end

(** {1 E7 — §1/§4: continuation-passing style runs in bounded space} *)
module Cps : sig
  val grid : ?ns:int list -> ?fuel:int -> unit -> series list Runner.grid
  (** The tail and gc series of the CPS loop. *)

  val render : series list -> string
end

(** {1 E8 — ablations of the disambiguation choices (DESIGN.md)} *)
module Ablation : sig
  type result = {
    return_env_rows : series list;
        (** separator 1 under I_gc/I_stack, faithful vs literal frames *)
    return_env_verdicts : verdict list;
        (** S_stack against S_gc: faithful frames, then literal *)
    evlis_rows : series list;
        (** separator 3 under I_tail/I_evlis, with and without the
            drop-at-creation rule *)
    evlis_verdicts : verdict list;
        (** S_tail against S_evlis: faithful evlis, then literal *)
  }

  val grid : ?ns:int list -> unit -> result Runner.grid
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

  type row = {
    engine : string;
    cells : (series * series) list;
        (** per battery program, the implementation's series and
            [S_tail]'s *)
    verdict : ruling;
        (** [Holds] when no cell separates and every exponent is
            resolved, [Fails] when some cell separates *)
  }

  val grid : ?pool:Pool.t -> ?ns:int list -> unit -> row list Runner.grid
  (** The [S_tail] and [I_gc] series are grid points; the SECD runs fan
      out over [pool] when the grid is read. *)

  val render : row list -> string
end

(** {1 E10 — the space hierarchy under the logarithmic model} *)
module LogHier : sig
  (** Re-runs the Theorem 24/25/26 separations with all three space
      models measured and reports which strict inclusions survive
      pointer-size (log) accounting — the [Space_model.Log] measure
      re-prices every linked unit at [ceil(log2 |store|)] bits, a
      factor that grows with the live store. *)

  type result = {
    pairs : verdict list;
        (** Theorem 25's four adjacent separations, each claimed by its
            separator family's name (["x/y"]) and decided on [Log_x]
            against [Log_y]; [Holds] reads "survives" *)
    chain_rows : (string * ruling) list;
        (** Theorem 24's pointwise chain re-checked on Log consumption
            per corpus program — not implied by the flat chain, since
            each variant's figures are scaled by its own store's
            pointer size *)
    thm26 : verdict;
        (** Theorem 26's own separation on [P_N], at {!Thm26}'s default
            N: flat [S_sfs] against [Log_tail] *)
  }

  val grid : ?ns:int list -> ?fuel:int -> unit -> result Runner.grid
  (** At N = 20 to 160 by default: every point measures Linked and Log,
      whose walk runs on every step. *)

  val render : result -> string
end

val names : string list
(** The tables in report order: fig2, thm25, thm24, thm26, sec4, cor20,
    cps, ablation, sanity, loghier. *)

val report : ?pool:Pool.t -> string list -> string
(** The named tables, in the order given, measured as one grid — what
    [schemesim report] prints ([report all] names them all). Raises
    [Not_found] for a name not in {!names}. *)
