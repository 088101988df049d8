module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

type result = { observability : float array; vectors : int }

(* Evaluate the netlist with node [faulty]'s value inverted. *)
let eval_with_flip netlist ~input_words ~values ~faulty =
  Netlist.eval_words netlist ~input_words ~values ~after:(fun id v ->
      if id = faulty then Int64.lognot v else v)

let analyze ?(seed = 0xc817) ?(vectors = 1024) netlist =
  if vectors < 1 then invalid_arg "Criticality.analyze: vectors must be >= 1";
  let rng = Nano_util.Prng.create ~seed in
  let words = Nano_util.Math_ext.ceil_div vectors 64 in
  let n = Netlist.node_count netlist in
  let n_in = List.length (Netlist.inputs netlist) in
  let golden = Array.make n 0L in
  let faulty_values = Array.make n 0L in
  let hits = Array.make n 0 in
  let outputs = Netlist.outputs netlist in
  for _ = 1 to words do
    let input_words =
      Array.init n_in (fun _ -> Nano_util.Prng.bits64 rng)
    in
    Nano_sim.Bitsim.eval_words_into netlist ~input_words ~values:golden;
    for faulty = 0 to n - 1 do
      eval_with_flip netlist ~input_words ~values:faulty_values ~faulty;
      let diff = ref 0L in
      List.iter
        (fun (_, node) ->
          diff :=
            Int64.logor !diff (Int64.logxor golden.(node) faulty_values.(node)))
        outputs;
      hits.(faulty) <- hits.(faulty) + Nano_util.Bits.popcount64 !diff
    done
  done;
  let total = float_of_int (words * 64) in
  {
    observability = Array.map (fun h -> float_of_int h /. total) hits;
    vectors = words * 64;
  }

let ranked_gates netlist result =
  let gates =
    Netlist.fold netlist ~init:[] ~f:(fun acc id info ->
        if Gate.is_logic info.Netlist.kind then id :: acc else acc)
  in
  List.sort
    (fun a b ->
      match compare result.observability.(b) result.observability.(a) with
      | 0 -> compare a b
      | c -> c)
    gates

let top_fraction netlist result ~fraction =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg "Criticality.top_fraction: fraction in [0, 1]";
  let ranked = ranked_gates netlist result in
  let count =
    int_of_float (ceil (fraction *. float_of_int (List.length ranked)))
  in
  List.filteri (fun i _ -> i < count) ranked
