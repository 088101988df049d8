(** Gate criticality (fault observability): how likely a single flip at
    a gate's output is to corrupt some primary output.

    This identifies where redundancy actually buys reliability — the
    ranking consumed by [Nano_redundancy.Selective]'s targeted hardening
    and a practical complement to the paper's global bounds. *)

type result = {
  observability : float array;
      (** Per node id: fraction of random input vectors on which
          flipping that node's value changes at least one primary
          output. Sources and buffers are reported too (a flipped input
          is not a gate fault, but the number is still meaningful). *)
  vectors : int;
}

val analyze : ?seed:int -> ?vectors:int -> Nano_netlist.Netlist.t -> result
(** Bit-parallel single-fault injection: one simulation pass per node,
    64 vectors per word ([vectors] defaults to 1024, rounded up).
    Raises [Invalid_argument] when [vectors < 1]. *)

val ranked_gates : Nano_netlist.Netlist.t -> result -> Nano_netlist.Netlist.node list
(** Logic-gate ids sorted by decreasing observability (ties broken by
    id); sources and buffers excluded. *)

val top_fraction :
  Nano_netlist.Netlist.t -> result -> fraction:float ->
  Nano_netlist.Netlist.node list
(** The most critical [ceil (fraction * gate count)] gates. Requires
    [0 <= fraction <= 1]. *)
