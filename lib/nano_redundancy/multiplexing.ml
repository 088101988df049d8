module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder

let permutation rng n =
  let p = Array.init n (fun i -> i) in
  Nano_util.Prng.shuffle_in_place rng p;
  p

(* One NAND layer: pair wire i of [xs] with wire perm(i) of [ys]. *)
let nand_layer b rng xs ys =
  let n = Array.length xs in
  let p = permutation rng n in
  Array.init n (fun i -> B.nand2 b xs.(i) ys.(p.(i)))

let nand_unit ~bundle ~restorative_stages ~seed =
  if bundle < 2 then invalid_arg "Multiplexing.nand_unit: bundle >= 2";
  if restorative_stages < 0 then
    invalid_arg "Multiplexing.nand_unit: restorative_stages >= 0";
  let rng = Nano_util.Prng.create ~seed in
  let b =
    B.create
      ~name:(Printf.sprintf "vnmux_nand_N%d_U%d" bundle restorative_stages)
      ()
  in
  let xs = Array.init bundle (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let ys = Array.init bundle (fun i -> B.input b (Printf.sprintf "y%d" i)) in
  (* Executive stage. *)
  let stage = ref (nand_layer b rng xs ys) in
  (* Each restorative stage NANDs the bundle with a permuted copy of
     itself twice: the first layer inverts the level, the second restores
     polarity while sharpening the distribution toward 0/1. *)
  for _ = 1 to restorative_stages do
    let inverted = nand_layer b rng !stage !stage in
    stage := nand_layer b rng inverted inverted
  done;
  Array.iteri (fun i z -> B.output b (Printf.sprintf "z%d" i) z) !stage;
  B.finish b

let analytic_nand_level ~epsilon x y =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Multiplexing.analytic_nand_level: epsilon in [0, 1/2]";
  epsilon +. ((1. -. (2. *. epsilon)) *. (1. -. (x *. y)))

let analytic_stage ~epsilon ~restorative_stages x y =
  let level = ref (analytic_nand_level ~epsilon x y) in
  for _ = 1 to restorative_stages do
    let inverted = analytic_nand_level ~epsilon !level !level in
    level := analytic_nand_level ~epsilon inverted inverted
  done;
  !level

let stimulated_fixed_point ~epsilon =
  (* Iterate the double-layer restoration map from level 1; it converges
     quickly to the stable stimulated level for ε < ~0.0887 (von
     Neumann's threshold for NAND multiplexing). *)
  let step l =
    let inverted = analytic_nand_level ~epsilon l l in
    analytic_nand_level ~epsilon inverted inverted
  in
  let rec go l i =
    if i = 0 then l
    else begin
      let l' = step l in
      if Float.abs (l' -. l) < 1e-12 then l' else go l' (i - 1)
    end
  in
  go 1. 10_000

let size ~bundle ~restorative_stages = bundle * (1 + (2 * restorative_stages))

let measured_output_level ?(seed = 0x4e55) ?(trials = 256) ~epsilon ~bundle
    ~restorative_stages ~x_level ~y_level () =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Multiplexing.measured_output_level: epsilon in [0, 1/2]";
  let unit_netlist = nand_unit ~bundle ~restorative_stages ~seed in
  let rng = Nano_util.Prng.create ~seed:(seed lxor 0x77) in
  let stats = Nano_util.Stats.create () in
  let n_nodes = Netlist.node_count unit_netlist in
  let values = Array.make n_nodes 0L in
  let inputs = Netlist.inputs unit_netlist in
  for _ = 1 to trials do
    (* One trial = 64 parallel bundle draws in the bit lanes. *)
    let input_words =
      Array.of_list
        (List.map
           (fun id ->
             let name =
               match (Netlist.info unit_netlist id).Netlist.name with
               | Some nm -> nm
               | None -> ""
             in
             let level = if String.length name > 0 && name.[0] = 'x' then x_level else y_level in
             Nano_util.Prng.word_with_density rng ~p:level)
           inputs)
    in
    (* Noisy evaluation (every NAND is failure-prone). *)
    Netlist.eval_words unit_netlist ~input_words ~values ~after:(fun id clean ->
        if Nano_netlist.Gate.is_logic (Netlist.kind unit_netlist id) then
          Int64.logxor clean (Nano_faults.Noisy_sim.noise_word rng ~epsilon)
        else clean);
    (* Output excitation level per lane, averaged over lanes. *)
    let outputs = Netlist.outputs unit_netlist in
    for lane = 0 to 63 do
      let stimulated =
        List.fold_left
          (fun acc (_, node) ->
            if Nano_util.Bits.get values.(node) lane then acc + 1 else acc)
          0 outputs
      in
      Nano_util.Stats.add stats
        (float_of_int stimulated /. float_of_int (List.length outputs))
    done
  done;
  Nano_util.Stats.summary stats
