module Netlist = Nano_netlist.Netlist

(* Everything after the first strash. *)
let map_strashed ~max_fanin simplified =
  let balanced = Balance.run simplified in
  let limited = Fanin_limit.run ~max_fanin balanced in
  Strash.run limited

let map_only ?(max_fanin = 3) netlist =
  map_strashed ~max_fanin (Strash.run netlist)

let rugged_lite_strashed ?(max_fanin = 3) ?(collapse_threshold = 10)
    simplified =
  let inputs = List.length (Netlist.inputs simplified) in
  let best =
    if inputs <= collapse_threshold then begin
      (* Collapse, minimize, and rebuild both two-level and factored
         multi-level forms; keep whichever implementation is smallest
         (XOR-dominated circuits usually stay with the structural
         original). *)
      match Collapse.to_truth_tables ~max_inputs:collapse_threshold simplified with
      | None -> simplified
      | Some tables ->
        let covers =
          List.map
            (fun (name, tt) -> (name, Quine_mccluskey.minimize_table tt))
            tables
        in
        let input_names = Netlist.input_names simplified in
        let name = Netlist.name simplified in
        let two_level = Strash.run (Collapse.of_covers ~name ~input_names covers) in
        let factored =
          Strash.run (Factor.netlist_of_covers ~name ~input_names covers)
        in
        let smallest a b = if Netlist.size b < Netlist.size a then b else a in
        smallest (smallest simplified two_level) factored
    end
    else simplified
  in
  (* [best] is a strash output, which [map_only] would strash again.
     That second run changes at most where a constant node read by a
     wide majority sits, and neither [Balance] nor [Fanin_limit] reads
     those positions, so the closing strash, which places constants at
     their first reader, gives the same netlist either way. *)
  map_strashed ~max_fanin best

let rugged_lite ?max_fanin ?collapse_threshold netlist =
  rugged_lite_strashed ?max_fanin ?collapse_threshold (Strash.run netlist)

let nand_flow netlist = Strash.run (Nand_map.run netlist)
