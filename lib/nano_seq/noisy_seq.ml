module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

type trace = {
  epsilon : float;
  cycles : int;
  streams : int;
  output_error_per_cycle : float array;
  state_error_per_cycle : float array;
  final_state_error : float;
  mean_output_error : float;
}

(* Word-level evaluation of the core given already-bound input words:
   golden, or with noise at every logic gate output. *)
let eval_core ?epsilon core rng ~input_words ~values =
  Netlist.eval_words core ~input_words ~values
    ~after:
      (match epsilon with
      | None -> fun _ w -> w
      | Some epsilon ->
        fun id clean ->
          if Gate.is_logic (Netlist.kind core id) then
            Int64.logxor clean (Nano_faults.Noisy_sim.noise_word rng ~epsilon)
          else clean)

let simulate ?(seed = 0x5e61) ?(cycles = 64) ?(streams = 256)
    ?(input_probability = 0.5) ~epsilon machine =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Noisy_seq.simulate: epsilon must lie in [0, 1/2]";
  let core = Seq_netlist.core machine in
  let registers = Seq_netlist.registers machine in
  let rng = Nano_util.Prng.create ~seed in
  let batches = Nano_util.Math_ext.ceil_div streams 64 in
  let total = float_of_int (batches * 64) in
  let n = Netlist.node_count core in
  let input_ids = Netlist.inputs core in
  let out_nodes =
    List.filter
      (fun (name, _) ->
        List.mem name (Seq_netlist.observable_outputs machine))
      (Netlist.outputs core)
  in
  let next_of =
    List.map
      (fun r ->
        (r.Seq_netlist.state, List.assoc r.Seq_netlist.next (Netlist.outputs core)))
      registers
  in
  let out_err = Array.make cycles 0 in
  let state_err = Array.make cycles 0 in
  for _ = 1 to batches do
    let golden_state = Hashtbl.create 8 in
    let noisy_state = Hashtbl.create 8 in
    List.iter
      (fun r ->
        let init = if r.Seq_netlist.init then -1L else 0L in
        Hashtbl.replace golden_state r.Seq_netlist.state init;
        Hashtbl.replace noisy_state r.Seq_netlist.state init)
      registers;
    let golden_values = Array.make n 0L in
    let noisy_values = Array.make n 0L in
    for t = 0 to cycles - 1 do
      (* Shared free-input draw for the twin pair. *)
      let free_draw = Hashtbl.create 8 in
      let words_for state_table =
        Array.of_list
          (List.map
             (fun id ->
               let name =
                 match (Netlist.info core id).Netlist.name with
                 | Some nm -> nm
                 | None -> ""
               in
               match Hashtbl.find_opt state_table name with
               | Some w -> w
               | None -> begin
                 match Hashtbl.find_opt free_draw name with
                 | Some w -> w
                 | None ->
                   let w =
                     Nano_util.Prng.word_with_density rng ~p:input_probability
                   in
                   Hashtbl.replace free_draw name w;
                   w
               end)
             input_ids)
      in
      let golden_inputs = words_for golden_state in
      eval_core core rng ~input_words:golden_inputs ~values:golden_values;
      let noisy_inputs = words_for noisy_state in
      eval_core ~epsilon core rng ~input_words:noisy_inputs
        ~values:noisy_values;
      (* Observable disagreement this cycle. *)
      let wrong = ref 0L in
      List.iter
        (fun (_, node) ->
          wrong :=
            Int64.logor !wrong
              (Int64.logxor golden_values.(node) noisy_values.(node)))
        out_nodes;
      out_err.(t) <- out_err.(t) + Nano_util.Bits.popcount64 !wrong;
      (* Clock edge. *)
      List.iter
        (fun (state_name, next_node) ->
          Hashtbl.replace golden_state state_name golden_values.(next_node);
          Hashtbl.replace noisy_state state_name noisy_values.(next_node))
        next_of;
      let diverged = ref 0L in
      List.iter
        (fun (state_name, _) ->
          diverged :=
            Int64.logor !diverged
              (Int64.logxor
                 (Hashtbl.find golden_state state_name)
                 (Hashtbl.find noisy_state state_name)))
        next_of;
      state_err.(t) <- state_err.(t) + Nano_util.Bits.popcount64 !diverged
    done
  done;
  let output_error_per_cycle =
    Array.map (fun c -> float_of_int c /. total) out_err
  in
  let state_error_per_cycle =
    Array.map (fun c -> float_of_int c /. total) state_err
  in
  {
    epsilon;
    cycles;
    streams = batches * 64;
    output_error_per_cycle;
    state_error_per_cycle;
    final_state_error =
      (if cycles = 0 then 0. else state_error_per_cycle.(cycles - 1));
    mean_output_error =
      (if cycles = 0 then 0.
       else
         Array.fold_left ( +. ) 0. output_error_per_cycle
         /. float_of_int cycles);
  }

let state_halflife trace =
  let rec go t =
    if t >= trace.cycles then None
    else if trace.state_error_per_cycle.(t) >= 0.5 then Some t
    else go (t + 1)
  in
  go 0
