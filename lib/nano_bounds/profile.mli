(** Circuit profiles: the four scalars the bounds consume, extracted from
    a concrete netlist (Section 6's per-benchmark methodology). *)

type t = {
  name : string;
  inputs : int;  (** Primary inputs, n. *)
  outputs : int;
  size : int;  (** Error-free gate count, S0. *)
  depth : int;  (** Mapped logic depth. *)
  avg_fanin : float;  (** Average fanin over logic gates. *)
  max_fanin : int;
  sw0 : float;  (** Average per-gate switching activity. *)
  sensitivity : int;  (** Boolean sensitivity s (max over outputs). *)
}

type activity_method =
  | Monte_carlo of { seed : int; vectors : int }
  | Exact_bdd

val default_activity : activity_method
(** Monte Carlo with seed 0x5eed and 4096 vectors — the paper's
    "randomly generated inputs" setting. *)

val of_netlist :
  ?activity:activity_method ->
  ?sensitivity_samples:int ->
  ?jobs:int ->
  Nano_netlist.Netlist.t ->
  t
(** Measure a netlist. Sensitivity is exact for up to 12 inputs and a
    sampled lower estimate beyond that (see {!Nano_sim.Sensitivity});
    [jobs] (default 1) parallelizes that estimate over the
    {!Nano_util.Par} pool without changing its value. *)

val to_scenario :
  t -> epsilon:float -> delta:float -> leakage_share0:float -> Metrics.scenario
(** Instantiate the bound scenario for this circuit. The scenario's
    integer fanin is [max 2 (round avg_fanin)] and its activity is
    clamped into (0, 1) — degenerate profiles (constant outputs) are
    nudged rather than rejected. *)

val pp : Format.formatter -> t -> unit
