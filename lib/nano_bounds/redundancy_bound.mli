(** Theorem 2 / Corollary 1: minimum redundancy for (1-δ)-reliable
    computation with ε-noisy k-input gates.

    For a (possibly multi-output) function of sensitivity [s], the
    additional gates beyond the error-free implementation are at least

    {v (s·log s + 2s·log(2(1-2δ))) / (k·log t) v}

    with [t = (ω^3 + (1-ω)^3) / (ω(1-ω))] and [ω = (1 - (1-2ε)^k)/2].
    All logs are base 2. The bound is tight for parity functions
    implemented as decision trees / Shannon-style circuits. *)

type params = {
  epsilon : float;  (** Per-gate error, (0, 1/2]. *)
  delta : float;  (** Output error budget, [0, 1/2). *)
  fanin : int;  (** Gate fanin [k >= 2]. *)
  sensitivity : int;  (** Boolean sensitivity [s >= 1]. *)
}

val valid : params -> bool
(** Domain of Theorem 2: [0 < ε <= 1/2], [0 <= δ < 1/2], [k >= 2],
    [s >= 1]. *)

(** How gate noise is translated into the effective wire noise ω. The
    paper's formula is {!Gate_lumped}; {!Wire_split} is the ablation
    variant where the gate's ε is split across its k input wires. *)
type omega_model = Gate_lumped | Wire_split

val omega : ?model:omega_model -> fanin:int -> float -> float
(** [omega ~fanin epsilon] is the effective wire-noise parameter, in
    [(0, 1/2]]. Below [epsilon = 1e-6] it is computed as
    [-expm1 (k log1p (-2ε)) / 2] ([-expm1 (log1p (-2ε) / k) / 2] for
    {!Wire_split}), which does not cancel to 0: {!Gate_lumped} stays
    positive down to the smallest subnormal ε; {!Wire_split}, whose
    [ε / k] can lie below every positive double, is then the smallest
    positive double rather than 0. *)

val t_parameter : omega:float -> float
(** [t = (ω^3 + (1-ω)^3)/(ω(1-ω))]; decreases to 1 as ω → 1/2. Requires
    [0 < ω <= 1/2]. Overflows to [infinity] for ω below about 1e-308;
    {!log2_t} does not. *)

val log2_t : ?model:omega_model -> fanin:int -> float -> float
(** [log2 t] at [omega ?model ~fanin epsilon]: 0 at ε = 1/2, finite
    everywhere in [(0, 1/2]]. Below [epsilon = 1e-6] it is taken in the
    log domain from [log ω], so it stays finite (about 1073 at the
    smallest subnormal ε, k = 2) where [t] overflows; at and above the
    cutoff it is [log2 (t_parameter ~omega)], bit for bit. *)

val extra_gates : ?model:omega_model -> params -> float
(** Lower bound on the additional redundancy (in gates). [infinity] when
    ε = 1/2 exactly (where [log t = 0]); raises [Invalid_argument]
    outside {!valid}. Never negative: where the raw formula goes below
    zero (very insensitive functions at tiny ε, or δ near 1/2, where the
    [2s·log(2(1-2δ))] term diverges to -∞) Theorem 2 is vacuous and the
    result is clamped to 0, so [min_size params ~error_free_size:S0] is
    always at least [S0]. *)

val min_size : ?model:omega_model -> params -> error_free_size:int -> float
(** [max S0 (S0 + extra_gates params)]: the smallest conceivable gate
    count of a (1-δ)-reliable implementation. *)

val redundancy_factor :
  ?model:omega_model -> params -> error_free_size:int -> float
(** [min_size / S0] — the quantity plotted in Figure 3. *)

val size_upper_bound : error_free_size:int -> float
(** The classical [O(S0 log S0)] construction upper bound (Pippenger; Gács–Gál),
    with unit constant: [S0 * log2 S0] for [S0 >= 2]. The lower bound
    must stay below a constant multiple of this for consistency. *)
