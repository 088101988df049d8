(** Synthesis scripts: fixed sequences of passes mirroring the SIS
    flow the paper used to prepare its benchmarks.

    [rugged_lite] stands in for [script.rugged] followed by mapping onto
    a generic max-fanin-3 library (Section 6's methodology): structural
    hashing and local simplification, optional two-level
    collapse/minimization for narrow circuits, arrival-aware tree
    balancing, fanin decomposition, and a final cleanup pass. *)

val rugged_lite :
  ?max_fanin:int -> ?collapse_threshold:int ->
  Nano_netlist.Netlist.t -> Nano_netlist.Netlist.t
(** Defaults: [max_fanin = 3] (the paper's library), and two-level
    resynthesis applied only to circuits with at most
    [collapse_threshold = 10] inputs (where exact minimization is cheap
    and profitable). The result always satisfies
    [Netlist.max_fanin <= max_fanin]. *)

val rugged_lite_strashed :
  ?max_fanin:int -> ?collapse_threshold:int ->
  Nano_netlist.Netlist.t -> Nano_netlist.Netlist.t
(** [rugged_lite] from its first step's result:
    [rugged_lite_strashed (Strash.run n)] is [rugged_lite n], for a
    caller that already holds the strashed netlist (the evaluation
    service, which digests it too). *)

val map_only : ?max_fanin:int -> Nano_netlist.Netlist.t -> Nano_netlist.Netlist.t
(** Just strash + fanin decomposition + strash, no two-level step. *)

val nand_flow : Nano_netlist.Netlist.t -> Nano_netlist.Netlist.t
(** NAND/inverter expansion followed by cleanup — the c499 → c1355
    style transformation. *)
