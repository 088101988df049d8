(** Data series for the paper's analytical figures (2–6). Each function
    returns pure data; printing lives in [Nano_report] and the benchmark
    harness. *)

type series = { label : string; points : (float * float) list }

val parity10 : Metrics.scenario
(** The running example of Figures 3, 5 and 6: 10-input parity with
    sensitivity 10, error-free size 21 (a 2-input XOR tree has n-1 = 9
    XOR gates; the paper's 21 counts the decision-tree/Shannon
    implementation for which the bound is tight), δ = 0.01, sw0 = 0.5 and
    a 50% leakage share. The scenario's ε field is a placeholder
    overridden by each sweep. *)

val fig2_activity_map :
  ?epsilons:float list -> ?steps:int -> ?jobs:int -> unit -> series list
(** Figure 2: [sw(z)] as a function of [sw(y)], one series per ε
    (defaults: ε ∈ {0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}).

    Every sweep in this module accepts [?jobs] (default 1): the grid is
    evaluated across that many domains via {!Nano_util.Par}, with
    order-preserving merge, so the returned series are bit-identical for
    every job count. *)

val fig3_redundancy :
  ?fanins:int list -> ?epsilons:float list -> ?delta:float -> ?sensitivity:int ->
  ?error_free_size:int -> ?jobs:int -> unit -> series list
(** Figure 3: minimum redundancy factor versus ε for k ∈ {2, 3, 4}
    (defaults: the parity-10 parameters, log-spaced ε grid). *)

val fig4_leakage :
  ?sw0s:float list -> ?epsilons:float list -> ?jobs:int -> unit -> series list
(** Figure 4: normalized leakage/switching ratio versus ε, one series
    per sw0 (defaults {0.1, 0.25, 0.5, 0.75, 0.9}). *)

val fig5_delay_and_edp :
  ?fanins:int list -> ?steps:int -> ?jobs:int -> unit -> series list
(** Figure 5: normalized delay and energy×delay versus ε for each fanin;
    series are labelled ["delay k=2"], ["edp k=2"], ... Sweeps stay
    inside Theorem 4's feasible region for each k. *)

val fig6_average_power :
  ?fanins:int list -> ?steps:int -> ?jobs:int -> unit -> series list
(** Figure 6: normalized average power versus ε for each fanin. *)

val measured_delta :
  ?epsilons:float list ->
  ?vectors:int ->
  ?seed:int ->
  ?jobs:int ->
  (string * Nano_netlist.Netlist.t) list ->
  series list
(** Empirical δ̂(ε) — Monte-Carlo any-output error of each named circuit
    versus ε — from one batched multi-lane simulation pass per circuit
    ({!Nano_faults.Noisy_sim.profile_grid}): all grid points share input
    draws and fault uniforms (common random numbers), so the whole
    series costs about one single-point simulation. One series per circuit,
    labelled by its given name; [jobs] shards simulation vectors, not
    grid points, and the series are bit-identical for every job
    count. *)

val ablation_omega_models :
  ?fanin:int -> ?epsilons:float list -> ?jobs:int -> unit -> series list
(** Redundancy factor under the paper's gate-lumped ω versus the
    wire-split variant (ablation A of DESIGN.md). *)
