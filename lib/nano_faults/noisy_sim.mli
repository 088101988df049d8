(** Monte-Carlo simulation of netlists whose logic gates fail
    independently with probability ε (von Neumann error model).

    Noise is injected at the output of every *logic* gate — the gates
    counted by [Netlist.size]. Primary inputs, constant drivers and
    buffers are assumed error-free, matching the paper's device model
    where interconnect errors are lumped into device errors. *)

type engine = [ `Compiled | `Interp ]
(** Which evaluation kernel runs the Monte-Carlo word loop. [`Compiled]
    (the default) lowers the netlist once through
    {!Nano_netlist.Compiled} and runs the BLOCKED wide-word kernel:
    blocks of [block_width] words per gate visit with evaluation, noise
    injection and counter accumulation fused into one level-ordered
    sweep ({!Nano_netlist.Compiled.run_noisy_words}). [`Interp] is the
    historical walk over [Netlist.iter] / [Gate.eval_word], one word at
    a time. Both consume the PRNG stream in exactly the same per-word
    order and produce bit-identical results; [`Interp] shares nothing
    else with the compiled kernel and survives as its independent
    reference for differential tests and the benchmark series. *)

type result = {
  epsilon : float;
  vectors : int;
  per_output_error : (string * float) list;
      (** For each primary output, fraction of vectors on which the noisy
          value differed from the golden (error-free) value. *)
  any_output_error : float;
      (** Fraction of vectors on which at least one output was wrong: the
          empirical δ̂ of [(1-δ)]-reliable computation. *)
  node_probability : float array;  (** Empirical [Pr(node = 1)] with noise. *)
  node_activity : float array;
      (** Empirical toggle rate of each noisy node between independent
          draws; converges to Theorem 1's [sw(z)]. *)
  average_gate_activity : float;
      (** Mean noisy activity over logic gates. *)
}

val simulate :
  ?seed:int ->
  ?vectors:int ->
  ?input_probability:float ->
  ?jobs:int ->
  ?engine:engine ->
  ?block:int ->
  epsilon:float ->
  Nano_netlist.Netlist.t ->
  result
(** [vectors] (default 8192) is rounded up to a multiple of 64; it must
    be at least 1, as [jobs] must, or [Invalid_argument] is raised.

    [jobs] (default 1) shards the vector words across that many domains
    via {!Nano_util.Par}. Sharding is seed-stable: each shard jumps the
    seed generator to its segment of the sequential PRNG stream
    ({!Nano_util.Prng.jump}), so the result is bit-identical for every
    job count — and identical to the historical single-threaded
    simulation.

    [block] selects the blocked engine's words-per-gate-visit width
    (default {!Nano_netlist.Compiled.default_block_width}, i.e. 8 or
    the [NANOBOUND_BLOCK_WIDTH] environment override). Results are
    bit-identical at every width; the knob only moves throughput. *)

val simulate_heterogeneous :
  ?seed:int ->
  ?vectors:int ->
  ?input_probability:float ->
  ?jobs:int ->
  ?engine:engine ->
  ?block:int ->
  epsilon_of:(Nano_netlist.Netlist.node -> float) ->
  Nano_netlist.Netlist.t ->
  result
(** Like {!simulate} but with a per-gate error probability — the model
    for designs mixing device robustness classes (e.g. voters built
    from larger, slower, more reliable devices). [epsilon_of] is
    consulted once per logic gate and must return values in [[0, 1/2]];
    the result's [epsilon] field reports the mean over logic gates. *)

type mode =
  | Fixed
      (** Simulate every lane for the full vector budget. The default:
          bit-reproducible, jobs-independent, and (per lane, at any
          ε ≠ 1/2) bit-identical to {!simulate}. *)
  | Adaptive of { half_width : float; z : float }
      (** Confidence-interval early stopping: after every block of 1024
          vectors, freeze each lane whose Agresti–Coull interval around
          its empirical δ̂ has half-width ≤ [half_width] at [z] standard
          normal quantiles (e.g. [z = 1.96] for 95%), and keep
          simulating the rest. A frozen lane's [result.vectors] records
          how far it ran; because the batched kernel's draw consumption
          is independent of the lane set, its counts equal a [Fixed] run
          truncated at that block — decisions are made on merged
          counters at fixed block boundaries, so results remain
          jobs-independent. *)

val profile_grid :
  ?seed:int ->
  ?vectors:int ->
  ?input_probability:float ->
  ?jobs:int ->
  ?mode:mode ->
  ?block:int ->
  epsilons:float array ->
  Nano_netlist.Netlist.t ->
  result array
(** [profile_grid ~epsilons netlist] evaluates one Monte-Carlo pass for
    an entire ε-grid: the circuit is compiled once, each 64-vector word
    is executed once per lane from the SAME input draw, and every noisy
    gate draws ONE shared 64-uniform noise word thinned against the
    packed per-lane thresholds ({!Nano_netlist.Compiled.run_noisy_grid_words}).
    Lanes are therefore coupled by common random numbers — grid
    differences have collapsed variance — and each ε ≠ 1/2 lane is
    bit-identical to the per-point {!simulate} at the same seed.
    Defaults match {!simulate} ([seed = 0xfa17], [vectors = 8192],
    [input_probability = 0.5], [jobs = 1], [mode = Fixed]).

    Returned array is parallel to [epsilons]. Edge cases short-circuit:
    an empty grid returns [[||]] without touching the pool; a
    single-point grid runs the per-point engine on the calling domain;
    ε = 0 lanes are never simulated — their output-error figures are
    exactly zero and their node statistics come from the golden pair the
    pass computes anyway. [jobs] shards vector words (not grid points)
    across domains with the seed-jump discipline of {!simulate}:
    results are bit-identical for every job count. [vectors] and [jobs]
    must be at least 1, or [Invalid_argument] is raised. *)

val profile_grid_heterogeneous :
  ?seed:int ->
  ?vectors:int ->
  ?input_probability:float ->
  ?jobs:int ->
  ?block:int ->
  epsilon_of_lanes:(Nano_netlist.Netlist.node -> float) array ->
  Nano_netlist.Netlist.t ->
  result array
(** Per-gate counterpart of {!profile_grid}: one fused Monte-Carlo pass
    over several heterogeneous epsilon assignments. Lane [k]'s
    assignment is [epsilon_of_lanes.(k)], consulted once per logic gate
    as in {!simulate_heterogeneous}; the lanes ride one compiled pass
    with common-random-number coupling — each word is drawn once, every
    noisy gate draws one shared 64-uniform word thinned against its own
    per-lane thresholds ({!Nano_netlist.Compiled.pack_grid_heterogeneous}) —
    so differences between assignments have collapsed variance. Each
    lane is bit-identical to {!simulate_heterogeneous} at the same seed
    whenever none of its gates sits exactly at ε = 1/2. Every lane runs
    the full vector budget; the returned array is parallel to
    [epsilon_of_lanes] (empty input returns [[||]]). Defaults, the
    [vectors]/[jobs] preconditions and the [jobs] seed-jump discipline
    match {!simulate}. *)

val output_reliability : result -> float
(** [1 - any_output_error]: the empirical probability that the whole
    output word is correct. *)
