module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Compiled = Nano_netlist.Compiled

type profile = {
  node_transitions : float array;
  node_settled_toggles : float array;
  average_gate_transitions : float;
  average_gate_settled : float;
  glitch_factor : float;
  pairs : int;
}

let is_counted info =
  match info.Netlist.kind with
  | Gate.Input | Gate.Const _ | Gate.Buf -> false
  | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor | Gate.Majority -> true

let unit_delay ?(seed = 0x911c) ?(pairs = 2048) ?(input_probability = 0.5)
    netlist =
  let rng = Nano_util.Prng.create ~seed in
  let words = Nano_util.Math_ext.ceil_div pairs 64 in
  let n = Netlist.node_count netlist in
  let c = Compiled.of_netlist netlist in
  let block = Compiled.block_width c in
  let depth = Netlist.depth netlist in
  let transitions = Array.make n 0 in
  let settled_toggles = Array.make n 0 in
  let old_values = Compiled.create_values_blocked c in
  let new_values = Compiled.create_values_blocked c in
  let prev = Compiled.create_values_blocked c in
  let next = Compiled.create_values_blocked c in
  let buf_len = Bytes.length old_values in
  (* Same PRNG stream as a sequential word-by-word loop: per word,
     vector A's input words then vector B's (evaluation consumes no
     draws) — addressed positionally, so a block of words replays the
     exact per-word interleave. *)
  let half =
    Netlist.input_count netlist
    * Nano_util.Prng.draws_per_word ~p:input_probability
  in
  let dpw = 2 * half in
  let done_words = ref 0 in
  while !done_words < words do
    let bw = min block (words - !done_words) in
    Compiled.draw_input_words_blocked c rng ~offset:0 ~stride:dpw ~width:bw
      ~input_probability ~values:old_values;
    Compiled.exec_words_blocked c ~width:bw ~values:old_values;
    Compiled.draw_input_words_blocked c rng ~offset:half ~stride:dpw
      ~width:bw ~input_probability ~values:new_values;
    Compiled.exec_words_blocked c ~width:bw ~values:new_values;
    Compiled.add_toggle_counts_blocked c ~width:bw ~a:old_values
      ~b:new_values ~into:settled_toggles;
    (* Wave propagation: start settled at A, inputs snap to B (the input
       slots of [new_values] still hold vector B after evaluation). *)
    Bytes.blit old_values 0 prev 0 buf_len;
    Compiled.copy_input_words_blocked c ~src:new_values ~dst:prev;
    Compiled.add_toggle_counts_blocked c ~width:bw ~a:prev ~b:old_values
      ~into:transitions;
    for _t = 1 to depth do
      (* One synchronous unit-delay step: every gate reads its fanins'
         previous values; inputs copy through. *)
      Compiled.exec_step_blocked c ~width:bw ~src:prev ~dst:next;
      Compiled.add_toggle_counts_blocked c ~width:bw ~a:next ~b:prev
        ~into:transitions;
      Bytes.blit next 0 prev 0 buf_len
    done;
    Nano_util.Prng.jump rng ~draws:(bw * dpw);
    done_words := !done_words + bw
  done;
  let total = float_of_int (words * 64) in
  let node_transitions = Array.map (fun c -> float_of_int c /. total) transitions in
  let node_settled_toggles =
    Array.map (fun c -> float_of_int c /. total) settled_toggles
  in
  let average per_node =
    let sum, count =
      Netlist.fold netlist ~init:(0., 0) ~f:(fun (s, c) id info ->
          if is_counted info then (s +. per_node.(id), c + 1) else (s, c))
    in
    if count = 0 then 0. else sum /. float_of_int count
  in
  let average_gate_transitions = average node_transitions in
  let average_gate_settled = average node_settled_toggles in
  {
    node_transitions;
    node_settled_toggles;
    average_gate_transitions;
    average_gate_settled;
    glitch_factor =
      (if average_gate_settled = 0. then 1.
       else average_gate_transitions /. average_gate_settled);
    pairs = words * 64;
  }
