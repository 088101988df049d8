(** Theorem 4 (Evans–Schulman): logic-depth lower bound for (1-δ)-reliable
    computation.

    With [ξ = 1 - 2ε] and [Δ = 1 + δ·log δ + (1-δ)·log(1-δ)] (all logs
    base 2, i.e. [Δ = 1 - H(δ)]):
    - if [ξ^2 > 1/k] the depth satisfies
      [d ≥ log(nΔ) / log(kξ^2)];
    - otherwise the theorem's feasibility precondition takes over: no
      circuit computes a function of [n > 1/Δ] relevant inputs
      (1-δ)-reliably, and for [n ≤ 1/Δ] the theorem yields no depth
      bound at all. *)

type verdict =
  | Bounded of float
      (** Reliable computation possible; depth is at least this many
          levels (never negative). *)
  | Trivially_feasible of { max_inputs : float }
      (** The sub-threshold regime [ξ² ≤ 1/k], where the theorem only
          speaks through its feasibility condition: the requested
          [n ≤ max_inputs = 1/Δ], so reliable computation is not ruled
          out, but no depth lower bound exists either. Reported
          explicitly (rather than as a vacuous [Bounded 0.]) so
          callers — {!Nano_lint}'s fan-in audit in particular — can
          surface the [n ≤ 1/Δ] precondition the result hangs on. *)
  | Infeasible of { max_inputs : float }
      (** Signal decays faster than fanin can recombine it: only
          functions of at most [max_inputs] = 1/Δ inputs are reliably
          computable, and the requested [n] exceeds it. *)

val xi : epsilon:float -> float
(** [1 - 2ε]. Requires a valid ε in [[0, 1/2]]. *)

val delta_capacity : delta:float -> float
(** [Δ = 1 - H(δ)], in [(0, 1]] for [δ ∈ [0, 1/2)]. Within 1e-3 of
    1/2 it is summed from its series in [u = 1/2 - δ],
    [Σ (2u)^(2n) / (2n(2n - 1) ln 2)], since the difference cancels
    there (to 0 at [u = 1e-9]); further out, [1 - H(δ)] as written. *)

val min_depth : epsilon:float -> delta:float -> fanin:int -> inputs:int -> verdict
(** Theorem 4 proper. Requires [0 <= ε < 1/2] handled normally; at
    [ε = 1/2] everything with [n > 1/Δ] is infeasible and everything
    smaller is {!Trivially_feasible}. Requires [0 <= δ < 1/2],
    [fanin >= 2], [inputs >= 1]. Above the ξ²·k threshold the verdict
    is always [Bounded] (0 when [nΔ ≤ 1] makes the bound vacuous);
    below it, [Trivially_feasible] or [Infeasible] according to the
    [n ≤ 1/Δ] condition. *)

val error_free_depth : fanin:int -> inputs:int -> float
(** Baseline depth of an error-free fanin-k implementation of a function
    that depends on [n] inputs: [log_k n] (continuous). *)

val depth_ratio :
  epsilon:float -> delta:float -> fanin:int -> inputs:int -> verdict
(** Normalized depth lower bound [d(ε,δ) / d0]; clamped at 1 from below
    (a fault-tolerant implementation can never be shallower than the
    information-theoretic error-free depth). [Trivially_feasible] and
    [Infeasible] verdicts pass through unchanged. *)
