module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

type config = {
  inputs : int;
  gates : int;
  outputs : int;
  allow_majority : bool;
  max_fanin : int;
}

let default_config =
  { inputs = 5; gates = 25; outputs = 3; allow_majority = true; max_fanin = 3 }

let generate ?(config = default_config) ~seed () =
  if config.inputs < 1 then invalid_arg "Random_circuit: inputs >= 1";
  if config.gates < 0 then invalid_arg "Random_circuit: gates >= 0";
  if config.outputs < 1 then invalid_arg "Random_circuit: outputs >= 1";
  if config.max_fanin < 2 then invalid_arg "Random_circuit: max_fanin >= 2";
  let rng = Nano_util.Prng.create ~seed in
  let b = B.create ~name:(Printf.sprintf "rand%d" seed) () in
  (* Nodes in creation order; a draw of k names the k-th newest, so
     each pick is O(1) and the stream matches a newest-first list. *)
  let nodes = Array.make (config.inputs + config.gates) 0 in
  let count = ref 0 in
  let push node =
    nodes.(!count) <- node;
    incr count
  in
  for i = 0 to config.inputs - 1 do
    push (B.input b (Printf.sprintf "x%d" i))
  done;
  let newest k = nodes.(!count - 1 - k) in
  let pick () = newest (Nano_util.Prng.int rng ~bound:!count) in
  let kinds =
    [ Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor ]
    @ (if config.allow_majority then [ Gate.Majority ] else [])
    @ [ Gate.Buf ]
  in
  let kind_arr = Array.of_list kinds in
  for _ = 1 to config.gates do
    let kind = kind_arr.(Nano_util.Prng.int rng ~bound:(Array.length kind_arr)) in
    let arity =
      match kind with
      | Gate.Not | Gate.Buf -> 1
      | Gate.Majority -> 3
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
        2 + Nano_util.Prng.int rng ~bound:(config.max_fanin - 1)
      | Gate.Input | Gate.Const _ -> 0
    in
    let fanins = List.init arity (fun _ -> pick ()) in
    push (B.add b kind fanins)
  done;
  (* Outputs: the newest nodes first so the circuit body is observable,
     padded with random picks (duplicate driver nodes are fine — only
     output names must be unique). *)
  for i = 0 to config.outputs - 1 do
    let driver = if i < !count then newest i else pick () in
    B.output b (Printf.sprintf "f%d" i) driver
  done;
  B.finish b
