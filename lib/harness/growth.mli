(** Growth exponents for space sweeps: the one separation statistic.

    The paper's separations are claims about growth orders — "quadratic
    space in one implementation but only linear in the other" (proof of
    Theorem 25), where linear includes the [N log N] of a bignum counter
    per frame. A sweep's growth exponent is read from its increments
    over its top geometric step, so every additive constant (the initial
    environment, the program term) cancels, and every verdict is one
    comparison of two exponents. *)

val exponent : (int * int) list -> float option
(** [exponent points] for measurements [(N, S)] in increasing [N]: with
    the last three at [N_{k-2}], [N_{k-1}], [N_k],
    [p = log_r ((S(N_k) - S(N_{k-1})) / (S(N_{k-1}) - S(N_{k-2})))],
    where [r = N_k / N_{k-1}] (2 on every grid [report] uses). A top
    increment of zero or less reads 0. [None] (unresolved) when there
    are fewer than three points, when the top is not geometric
    ([N_k * N_{k-2} <> N_{k-1}^2]), or when growth starts inside the
    top step (a previous increment of zero or less). [S = a N^p + c]
    reads exactly [p]; [c + k log N] reads 0. *)

val separates : float option -> float option -> bool
(** [separates p_x p_y]: [S_x] grows faster than [S_y] by at least half
    the gap between the paper's classes (bounded 0, linear 1, quadratic
    2), that is [p_x >= p_y + 1/2]. False when either is unresolved. *)

val bounded : float option -> bool
(** A resolved exponent that does not separate from a constant series
    (exponent 0): [p < 1/2]. *)

val show : float option -> string
(** The exponent to two decimals, or ["-"] when unresolved. *)
