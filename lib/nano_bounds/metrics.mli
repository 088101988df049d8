(** Corollary 2 and the composite normalized metrics of Section 5.2
    (Figures 5–8): energy, delay, energy-delay product and average power
    of a fault-tolerant implementation, as ratios over the error-free
    baseline. *)

type scenario = {
  epsilon : float;  (** Per-gate error, (0, 1/2]. *)
  delta : float;  (** Output error budget, [0, 1/2). *)
  fanin : int;  (** Gate fanin k (or average fanin for benchmarks). *)
  sensitivity : int;  (** Boolean sensitivity s of the function. *)
  error_free_size : int;  (** S0, gates. *)
  inputs : int;  (** n, relevant primary inputs (drives Theorem 4). *)
  sw0 : float;  (** Error-free average per-gate activity, (0, 1). *)
  leakage_share0 : float;
      (** λ0 — fraction of baseline energy that is leakage, [0, 1). The
          paper's figures use 0.5. *)
}

val epsilon_valid : float -> bool
(** ε ∈ (0, 1/2]: the per-gate error the theorems are stated for. *)

val delta_valid : float -> bool
(** δ ∈ [0, 1/2): an output error budget short of a coin flip. *)

val leakage_share_valid : float -> bool
(** λ0 ∈ [0, 1): leakage cannot be the whole baseline energy. *)

val scenario_valid : scenario -> bool
(** Every field in its domain: the three above, plus fanin >= 2,
    sensitivity >= 1, S0 >= 1, n >= 1 and sw0 ∈ (0, 1). *)

type bounds = {
  size_ratio : float;  (** [S(ε,δ)/S0 >= 1] (Theorem 2 / Corollary 1). *)
  activity_ratio : float;  (** [sw(ε)/sw0] (Theorem 1). *)
  idle_ratio : float;  (** [(1-sw(ε))/(1-sw0)] — drives leakage. *)
  switching_energy_ratio : float;
      (** Corollary 2 proper: [size_ratio * activity_ratio]. *)
  energy_ratio : float;
      (** Total-energy bound including leakage:
          [size_ratio * ((1-λ0) * activity_ratio + λ0 * idle_ratio)]. *)
  leakage_ratio_change : float;  (** Theorem 3's normalized W ratio. *)
  delay_ratio : float option;
      (** Theorem 4 normalized depth bound; [None] when reliable
          computation is infeasible at these parameters. *)
  energy_delay_ratio : float option;  (** [energy_ratio * delay_ratio]. *)
  average_power_ratio : float option;  (** [energy_ratio / delay_ratio]. *)
}

val evaluate : scenario -> bounds
(** Raises [Invalid_argument] when {!scenario_valid} fails. *)

val feasible_epsilon_sup : fanin:int -> float
(** Supremum of ε for which Theorem 4's bounded branch applies:
    [(1 - k^(-1/2)) / 2]. Figures 5–6 sweep ε strictly below it. *)

val explain : scenario -> string
(** A step-by-step derivation of the bounds for the scenario: ω and t of
    Theorem 2, the additional-gate count, Theorem 1's activity shift,
    Corollary 2's factors, and Theorem 4's ξ²·k feasibility test —
    every intermediate the figures are built from, as printable text. *)

val headline_energy_overhead :
  epsilon:float -> delta:float -> scenario -> float
(** Energy overhead [(energy_ratio - 1)] of the scenario re-evaluated at
    the given (ε, δ); the paper's headline instantiates ε = δ = 0.01. *)
