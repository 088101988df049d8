(** Von Neumann NAND multiplexing: signals travel as bundles of N wires
    and every logical NAND becomes an executive stage of N parallel
    NANDs followed by restorative stages that re-amplify the majority
    level. The paper cites this (via von Neumann's parallel restitution)
    as one concrete way to spend redundancy; we build it to compare
    achieved reliability and energy against the lower bounds.

    Terminology: the {e excitation level} of a bundle is the fraction of
    its wires carrying 1. A stimulated bundle should be near level 1, a
    quiet one near level 0. *)

val nand_unit :
  bundle:int -> restorative_stages:int -> seed:int -> Nano_netlist.Netlist.t
(** A multiplexed NAND computing one logical NAND of two bundles.
    Inputs [x0..x(N-1)] and [y0..y(N-1)]; outputs [z0..z(N-1)]. Each
    stage pairs wires through a seeded pseudo-random permutation (von
    Neumann's "U" randomizing unit). Requires [bundle >= 2],
    [restorative_stages >= 0]. A restorative stage costs two NAND
    layers. *)

val analytic_nand_level : epsilon:float -> float -> float -> float
(** Expected output excitation level of one ε-noisy NAND layer given
    input levels [x] and [y]: [ε + (1-2ε)(1 - x·y)]. *)

val analytic_stage :
  epsilon:float -> restorative_stages:int -> float -> float -> float
(** Expected output level of a full multiplexed NAND (executive stage
    followed by the given number of restorative stages, each two NAND
    layers with duplicated inputs). *)

val stimulated_fixed_point : epsilon:float -> float
(** The stable high excitation level of iterated restoration: the largest
    fixed point of [l ↦ ε + (1-2ε)(1 - l²)] composed twice, approached
    when a stimulated bundle is repeatedly restored. Computed
    numerically. *)

val size : bundle:int -> restorative_stages:int -> int
(** Gate count of {!nand_unit}: [bundle * (1 + 2 * restorative_stages)]
    NAND gates. *)

val measured_output_level :
  ?seed:int -> ?trials:int -> epsilon:float -> bundle:int ->
  restorative_stages:int -> x_level:float -> y_level:float -> unit ->
  Nano_util.Stats.summary
(** Monte-Carlo measurement: drive the unit with bundles whose wires are
    independently stimulated at the given levels, inject ε gate noise,
    and return statistics of the output excitation level across
    [trials] (default 256) draws. Each NAND XORs in a
    {!Nano_faults.Noisy_sim.noise_word}. Raises [Invalid_argument]
    unless [0 <= epsilon <= 1/2]. *)
