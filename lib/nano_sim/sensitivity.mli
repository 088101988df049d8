(** Boolean sensitivity of netlist functions.

    The sensitivity [s] of a function is the largest, over input
    assignments, number of inputs whose individual flip changes some
    output — the parameter driving Theorem 2's redundancy bound. For a
    multi-output circuit we use the characteristic-function convention of
    Corollary 1: an input flip "counts" when any output changes. *)

val at_assignment : Nano_netlist.Netlist.t -> bool array -> int
(** Sensitivity at one input assignment (number of single-input flips
    that change the output word). *)

val exact : ?max_inputs:int -> ?jobs:int -> Nano_netlist.Netlist.t -> int option
(** Exhaustive maximum over all [2^n] assignments; [None] when the
    netlist has more than [max_inputs] (default 12) primary inputs.
    [jobs] (default 1) partitions the assignment space across domains;
    the maximum is order-insensitive, so the result is identical for
    every job count.

    Both {!exact} and {!sampled} stop once the maximum found equals the
    structural support, the number of inputs in the transitive fanin of
    some output: an input outside every output's cone cannot flip an
    output, so no assignment scores higher. The value is the one the
    full scan returns. *)

val sampled :
  ?seed:int -> ?samples:int -> ?jobs:int -> Nano_netlist.Netlist.t -> int
(** Monte-Carlo lower estimate: maximum of {!at_assignment} over
    [samples] (default 2048) random assignments. Always a valid lower
    bound on the true sensitivity, which keeps Theorem 2's bound sound.
    [jobs] (default 1) shards the samples across domains with each shard
    replaying its segment of the sequential seed stream
    ({!Nano_util.Prng.jump}), so results are bit-identical for every job
    count. *)

val estimate :
  ?seed:int -> ?samples:int -> ?jobs:int -> Nano_netlist.Netlist.t -> int
(** {!exact} when feasible, otherwise {!sampled}. *)
