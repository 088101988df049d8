module Netlist = Nano_netlist.Netlist

type t = {
  name : string;
  inputs : int;
  outputs : int;
  size : int;
  depth : int;
  avg_fanin : float;
  max_fanin : int;
  sw0 : float;
  sensitivity : int;
}

type activity_method =
  | Monte_carlo of { seed : int; vectors : int }
  | Exact_bdd

let default_activity = Monte_carlo { seed = 0x5eed; vectors = 4096 }

let summarize ?sensitivity_samples ?jobs netlist
    (activity : Nano_sim.Activity.profile) =
  {
    name = Netlist.name netlist;
    inputs = List.length (Netlist.inputs netlist);
    outputs = List.length (Netlist.outputs netlist);
    size = Netlist.size netlist;
    depth = Netlist.depth netlist;
    avg_fanin = Netlist.average_fanin netlist;
    max_fanin = Netlist.max_fanin netlist;
    sw0 = activity.Nano_sim.Activity.average_gate_activity;
    sensitivity =
      Nano_sim.Sensitivity.estimate ?samples:sensitivity_samples ?jobs netlist;
  }

let of_netlist ?(activity = default_activity) ?sensitivity_samples ?jobs
    netlist =
  summarize ?sensitivity_samples ?jobs netlist
    (match activity with
    | Monte_carlo { seed; vectors } ->
      Nano_sim.Activity.monte_carlo ~seed ~vectors netlist
    | Exact_bdd -> Nano_sim.Activity.exact netlist)

let of_netlist_counted ?jobs netlist =
  let activity, counts = Nano_sim.Activity.monte_carlo_counted netlist in
  (summarize ?jobs netlist activity, counts)

let to_scenario p ~epsilon ~delta ~leakage_share0 =
  let fanin = max 2 (int_of_float (Float.round p.avg_fanin)) in
  let sw0 = Nano_util.Math_ext.clamp ~lo:1e-4 ~hi:(1. -. 1e-4) p.sw0 in
  {
    Metrics.epsilon;
    delta;
    fanin;
    sensitivity = max 1 p.sensitivity;
    error_free_size = max 1 p.size;
    inputs = max 1 p.inputs;
    sw0;
    leakage_share0;
  }

let pp ppf p =
  Format.fprintf ppf
    "%s: n=%d m=%d S0=%d depth=%d k̄=%.2f kmax=%d sw0=%.4f s=%d" p.name
    p.inputs p.outputs p.size p.depth p.avg_fanin p.max_fanin p.sw0
    p.sensitivity
