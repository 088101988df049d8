(** Signal-probability and switching-activity estimation.

    The paper's activity model is temporal independence:
    [sw(x) = 2 p(x) (1 - p(x))] where [p(x)] is the signal probability
    (Theorem 1's proof hint). Two estimators are provided — Monte Carlo
    (bit-parallel random vectors) and exact (ROBDD signal probabilities) —
    plus a measured toggle-rate estimator that draws pairs of consecutive
    vectors, used to validate the model in tests. *)

type profile = {
  node_probability : float array;  (** Per node id, [Pr(node = 1)]. *)
  node_activity : float array;  (** Per node id, [2 p (1-p)]. *)
  average_gate_activity : float;
      (** Mean activity over logic gates (the paper's per-gate [sw0];
          sources and buffers excluded, matching [Netlist.size]). *)
  vectors : int;  (** Sample count (0 for the exact estimator). *)
}

val monte_carlo :
  ?seed:int ->
  ?vectors:int ->
  ?input_probability:float ->
  Nano_netlist.Netlist.t ->
  profile
(** Bit-parallel sampling estimator. [vectors] (default 4096) is rounded
    up to a multiple of 64; [input_probability] defaults to 0.5. *)

type counts
(** The per-node one-counts of {!monte_carlo}'s default run (seed
    0x5eed, 4096 vectors), two bytes a node: what a caller keeps to
    have that run's activities again without simulating. *)

val monte_carlo_counted : Nano_netlist.Netlist.t -> profile * counts
(** {!monte_carlo} at its defaults, and that run's one-counts. *)

val node_activity_of_counts : counts -> float array
(** The run's [node_activity], computed from its counts exactly as
    {!monte_carlo} computes it: [p = ones / vectors], then [2 p (1-p)].
    Equal to the floats {!monte_carlo} returns, bit for bit. *)

val exact : ?input_probability:float -> Nano_netlist.Netlist.t -> profile
(** Exact signal probabilities via a ROBDD built over the primary inputs.
    Exponential in the worst case; intended for netlists up to a few
    hundred gates (our benchmark sizes). *)

val measured_toggle_rate :
  ?seed:int -> ?pairs:int -> ?input_probability:float ->
  Nano_netlist.Netlist.t -> float array
(** Empirical toggle probability per node between two independent random
    vectors; converges to [node_activity] under the independence model. *)

val average_over_gates : Nano_netlist.Netlist.t -> float array -> float
(** Mean of a per-node quantity over the logic gates counted by
    [Netlist.size]. *)
