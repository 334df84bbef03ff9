(** The paper's evaluation, experiment by experiment.

    Each experiment exposes a [run] returning structured data — the test
    suite asserts the paper's claims on it — and a [render] producing the
    table that [bench/main.exe] prints. The experiment ids match
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
    fit : Growth.fit option;  (** [None] when runs got stuck or starved *)
  }

  type sweep = { separator : string; ns : int list; cells : cell list }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?budget:Tailspace_resilience.Resilience.Budget.t ->
    unit ->
    sweep list
  (** One sweep per separating program, all six variants each. When a
      [budget] is given every point runs under it; points the governor
      aborts simply drop out of [spaces] (and the fit), so a partial
      sweep still renders. *)

  val order_of : sweep -> Machine.variant -> Growth.order option

  val claims : sweep list -> (string * bool) list
  (** The paper's growth claims ("stack/gc: quadratic under stack",
      ...), each evaluated against the fits. *)

  val render : sweep list -> string
end

(** {1 E3 — Theorem 24: pointwise inequalities} *)
module Thm24 : sig
  type row = {
    name : string;
    n : int;
    s : (Machine.variant * int) list;  (** S_X per variant *)
    chain_ok : bool;
        (** S_tail <= S_gc <= S_stack, S_sfs <= S_evlis <= S_tail,
            S_sfs <= S_free <= S_tail *)
  }

  val run :
    ?pool:Pool.t -> ?include_slow:bool -> unit -> row list

  val render : row list -> string
end

(** {1 E4 — Theorem 26 / §13: flat versus linked environments} *)
module Thm26 : sig
  type row = {
    n : int;
    u_tail : int;  (** U_tail(P_N, N): linked model on I_tail *)
    s_tail : int;  (** S_tail(P_N, N): flat model on I_tail *)
    s_sfs : int;  (** S_sfs(P_N, N) *)
  }

  type result = {
    rows : row list;
    u_tail_fit : Growth.fit option;
        (** [None] when fewer than three points answered — a starved
            sweep degrades the table instead of raising *)
    s_sfs_fit : Growth.fit option;
  }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?budget:Tailspace_resilience.Resilience.Budget.t ->
    unit ->
    result

  val render : result -> string
end

(** {1 E5 — §4: find-leftmost} *)
module Sec4 : sig
  type row = {
    spine : string;  (** "right" or "left" *)
    variant : Machine.variant;
    deltas : (int * int) list;
        (** (N, S_traverse - S_build): traversal overhead net of the
            tree data *)
    fit : Growth.fit option;
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
    tail_fit : Growth.fit option;
        (** [None] when fewer than three points answered *)
    gc_fit : Growth.fit option;
  }

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?budget:Tailspace_resilience.Resilience.Budget.t ->
    unit ->
    result

  val render : result -> string
end

(** {1 E8 — ablations of the disambiguation choices (DESIGN.md)} *)
module Ablation : sig
  type sweep = {
    label : string;
    spaces : (int * int) list;  (** (N, S) *)
  }

  type result = {
    ns : int list;
    return_env_rows : sweep list;
        (** separator 1 under I_gc/I_stack, faithful vs literal frames *)
    evlis_rows : sweep list;
        (** separator 3 under I_tail/I_evlis, with and without the
            drop-at-creation rule *)
    stack_gc_divergence_faithful : float;
    stack_gc_divergence_literal : float;
    tail_evlis_divergence_faithful : float;
    tail_evlis_divergence_literal : float;
  }

  val run : ?pool:Pool.t -> ?ns:int list -> unit -> result
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
      control: an implementation passes iff its live space stays within
      a constant factor of [S_tail] across a battery of programs. *)

  type cell = {
    program : string;
    engine_order : Growth.order;
        (** fitted growth of the implementation's live space *)
    tail_order : Growth.order;  (** fitted growth of [S_tail] *)
    ok : bool;
        (** the implementation does not grow strictly faster than
            [S_tail] on this program, up to a logarithmic slack for the
            bignum loop counter *)
  }

  type row = {
    engine : string;
    cells : cell list;
    properly_tail_recursive : bool;  (** all cells ok *)
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

  type pair = {
    separation : string;  (** separator family name, ["x/y"] *)
    flat_div : float;
        (** divergence ratio of [S_x / S_y] between the smallest and
            largest N *)
    log_div : float;  (** the same ratio-of-ratios under [Log] *)
    survives : bool;  (** [log_div >= threshold] *)
  }

  type result = {
    ns : int list;
    pairs : pair list;  (** Theorem 25's four adjacent separations *)
    chain_rows : (string * bool) list;
        (** Theorem 24's pointwise chain re-checked on Log consumption
            per corpus program — not implied by the flat chain, since
            each variant's figures are scaled by its own store's
            pointer size *)
    pk_ns : int list;
    thm26_flat_div : float;
        (** Theorem 26's own separation: [S_sfs] against [U_tail] on
            [P_N] *)
    thm26_log_div : float;  (** [S_sfs] against [Log_tail] *)
    thm26_survives : bool;
  }

  val threshold : float
  (** Minimum divergence ratio that counts as a separation (1.4, the
      same bar Thm25's claims use). *)

  val run :
    ?pool:Pool.t ->
    ?ns:int list ->
    ?budget:Tailspace_resilience.Resilience.Budget.t ->
    unit ->
    result

  val render : result -> string
end

val render_all : ?pool:Pool.t -> unit -> string
(** Every experiment's table, in order — the paper-reproduction report
    that [bench/main.exe] prints. *)
