(** Per-benchmark bound evaluation: the engine behind Figures 7 and 8.

    For each circuit profile and each device-error level, compute the
    normalized lower bounds on energy, delay, average power and
    energy-delay product, relative to the error-free implementation with
    a 50% leakage share (the paper's baseline for sub-90nm nodes). *)

type row = {
  benchmark : string;
  epsilon : float;
  delta : float;
  energy_ratio : float;
  delay_ratio : float option;  (** [None] when Theorem 4 rules out
                                    reliable computation. *)
  average_power_ratio : float option;
  energy_delay_ratio : float option;
  size_ratio : float;
}

val paper_epsilons : float list
(** The three device-error levels of Figures 7–8:
    [0.001; 0.01; 0.1]. *)

val paper_delta : float
(** δ = 0.01 (99% output resilience). *)

val evaluate_profile :
  ?delta:float -> ?leakage_share0:float -> Profile.t -> epsilon:float -> row
(** Defaults: [delta = paper_delta], [leakage_share0 = 0.5]. *)

val evaluate_suite :
  ?delta:float ->
  ?leakage_share0:float ->
  ?epsilons:float list ->
  ?jobs:int ->
  Profile.t list ->
  row list
(** Cartesian product of profiles and error levels, grouped by
    benchmark. [jobs] (default 1) evaluates the grid cells across that
    many domains ({!Nano_util.Par}); row order and values are identical
    for every job count. *)

type lane = {
  any_output_error : float;
      (** Monte-Carlo any-output error of the circuit at this ε. *)
  average_gate_activity : float;
      (** Average gate activity at this ε. *)
  vectors : int;
      (** Vectors the lane simulated: the budget rounded up to a
          multiple of 64. *)
}
(** One ε lane of a measured grid: everything a {!measured_row} takes
    from simulation. It depends on the circuit, the ε and the vector
    budget (and seed and mode), never on δ or the leakage share. *)

type measured_row = {
  row : row;  (** The analytic bounds at this (ε, δ) cell. *)
  measured_delta : float;
      (** Empirical δ̂(ε): Monte-Carlo any-output error of the circuit
          itself (no redundancy) at this ε. *)
  measured_activity : float;
      (** Empirical average gate activity at this ε — the measured
          counterpart of Theorem 1's sw(ε). *)
  vectors : int;
      (** Vectors the lane simulated: the budget rounded up to a
          multiple of 64. *)
}

val measure :
  ?epsilons:float list ->
  ?vectors:int ->
  ?seed:int ->
  ?jobs:int ->
  Nano_netlist.Netlist.t ->
  lane array
(** The δ-free half of {!measured_grid}: one
    {!Nano_faults.Noisy_sim.profile_grid} pass over [epsilons] (default
    {!paper_epsilons}), one lane per ε in order, with [vectors] default
    8192 and the simulator's [seed] default. Bit-identical for every
    [jobs]. *)

val measured_rows :
  ?deltas:float list ->
  ?leakage_share0:float ->
  epsilons:float list ->
  profile:Profile.t ->
  lane array ->
  measured_row list
(** The δ-dependent half of {!measured_grid}: the rows for lanes
    [measure ~epsilons] returned, ε-major and δ-minor, with the same
    defaults and degenerate-cell rules. Raises [Invalid_argument] when
    a δ is negative or there is not one lane per ε. *)

val measured_grid :
  ?deltas:float list ->
  ?leakage_share0:float ->
  ?epsilons:float list ->
  ?vectors:int ->
  ?seed:int ->
  ?jobs:int ->
  ?profile:Profile.t ->
  Nano_netlist.Netlist.t ->
  measured_row list
(** Bounds-versus-measurement over a full (ε, δ) grid from ONE batched
    Monte-Carlo pass: sensitivity and noiseless activity are computed
    once per circuit (pass [?profile] to reuse an existing measurement
    and skip even that), then {!Nano_faults.Noisy_sim.profile_grid}
    simulates every ε lane simultaneously under common random numbers.
    Rows are ordered ε-major, δ-minor ([deltas] default
    [[paper_delta]], [epsilons] default {!paper_epsilons}). Degenerate
    cells short-circuit to their analytic values instead of calling
    {!Metrics.evaluate} outside its domain: ε = 0 rows are all-ones;
    δ >= 1/2 rows have size_ratio 1 (the clamped vacuous bound),
    Theorem 1's δ-independent activity ratios, and delay ratio 1.
    Results are bit-identical for every [jobs]. Equal to
    [measured_rows ~epsilons ~profile (measure ~epsilons netlist)]
    under the same options. *)
