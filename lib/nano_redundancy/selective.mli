(** Selective (targeted) hardening: triplicate only the chosen gates,
    each with a local 3-way majority voter.

    The paper's bounds are scheme-agnostic; this module spends
    redundancy where a fault is most likely to be observed (the
    [Nano_faults.Criticality] ranking), which is how a synthesis tool
    would actually act on the theory.

    Von Neumann's caveat applies and is reproduced by the test suite:
    when the voter fails with the {e same} ε as the gates it protects,
    per-gate TMR is neutral — the voter becomes the single point of
    failure. Targeted hardening pays off when voters come from a more
    robust device class; model that by assigning the {!voters} a lower
    ε via [Nano_faults.Noisy_sim.simulate_heterogeneous]. *)

type hardened = {
  netlist : Nano_netlist.Netlist.t;
  voters : Nano_netlist.Netlist.node list;
      (** The inserted majority gates, as nodes of [netlist]. *)
  protected_gates : Nano_netlist.Netlist.node list;
      (** The gates that were hardened, as nodes of the original. *)
}

val harden :
  Nano_netlist.Netlist.t -> gates:Nano_netlist.Netlist.node list -> hardened
(** [harden netlist ~gates] replaces each listed logic gate with three
    copies (sharing the original fanins) voted by a [maj3]. Downstream
    logic and outputs read the voter. Ids must be logic gates of
    [netlist]; raises [Invalid_argument] otherwise. The result computes
    the same functions (locally-voted TMR is transparent without
    faults). *)

val harden_top :
  ?seed:int -> ?vectors:int -> fraction:float -> Nano_netlist.Netlist.t ->
  hardened
(** Rank gates by observability and harden the top [fraction]. *)

val harden_top_static :
  ?input_probability:float ->
  ?cone_budget:int ->
  epsilon:float ->
  fraction:float ->
  Nano_netlist.Netlist.t ->
  hardened
(** Like {!harden_top} but ranked by the deterministic
    {!Nano_static.Static.ranked_gates} error-criticality ordering at
    the given operating point — no Monte Carlo, no seed, microsecond
    cost. The count selected from the ranking matches {!harden_top}'s
    [ceil (fraction * gates)] convention. *)

val voter_epsilon_of :
  hardened -> gate_epsilon:float -> voter_epsilon:float ->
  Nano_netlist.Netlist.node -> float
(** Per-gate ε assignment for
    [Noisy_sim.simulate_heterogeneous]: [voter_epsilon] on the inserted
    voters, [gate_epsilon] everywhere else. *)

val size_overhead : original:Nano_netlist.Netlist.t -> hardened:hardened -> float
(** Gate-count ratio hardened / original. *)

val sweep_voter_epsilons :
  ?seed:int ->
  ?vectors:int ->
  ?input_probability:float ->
  ?jobs:int ->
  hardened ->
  gate_epsilon:float ->
  voter_epsilons:float array ->
  Nano_faults.Noisy_sim.result array
(** [sweep_voter_epsilons hardened ~gate_epsilon ~voter_epsilons] runs
    the voter-robustness trade study as one fused pass of
    [Noisy_sim.profile_grid_heterogeneous]: lane [k] assigns
    [voter_epsilons.(k)] to the inserted voters and [gate_epsilon]
    everywhere else (exactly {!voter_epsilon_of}). Lanes share input
    and noise randomness (common random numbers), so the sweep answers
    "how much does a better voter device buy?" with collapsed variance
    while each lane stays bit-identical to the stand-alone
    [simulate_heterogeneous] run at the same seed.
    Returned array is parallel to [voter_epsilons]. *)
