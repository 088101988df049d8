(** Fault injection for sequential machines.

    A combinational circuit forgets its errors after every vector; a
    sequential machine can latch them. This module clocks a machine
    whose core logic gates fail with probability ε (the same von
    Neumann model as [Nano_faults.Noisy_sim]) next to a golden twin and
    tracks how output and state errors evolve over time — the
    phenomenon that makes the paper's future-work item (sequential
    treatment) qualitatively different from the combinational theory. *)

type trace = {
  epsilon : float;
  cycles : int;
  streams : int;  (** Independent machine instances simulated. *)
  output_error_per_cycle : float array;
      (** Entry [t]: fraction of streams whose observable outputs were
          wrong at cycle [t]. *)
  state_error_per_cycle : float array;
      (** Entry [t]: fraction of streams whose register file differed
          from the golden twin {e after} cycle [t]'s clock edge. *)
  final_state_error : float;
  mean_output_error : float;
}

val simulate :
  ?seed:int ->
  ?cycles:int ->
  ?streams:int ->
  ?input_probability:float ->
  epsilon:float ->
  Seq_netlist.t ->
  trace
(** Clock [streams] (default 256, rounded up to a multiple of 64)
    noisy/golden machine pairs for [cycles] (default 64) cycles from
    reset, with fresh random free inputs each cycle shared by each
    noisy/golden pair. Each logic gate of the noisy core XORs in a
    {!Nano_faults.Noisy_sim.noise_word}. Raises [Invalid_argument]
    unless [0 <= epsilon <= 1/2]. *)

val state_halflife : trace -> int option
(** First cycle at which at least half of the streams carry a corrupted
    state; [None] if that never happens within the trace. A crude but
    useful summary of how fast errors accumulate. *)
