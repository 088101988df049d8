module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

type hardened = {
  netlist : Netlist.t;
  voters : Netlist.node list;
  protected_gates : Netlist.node list;
}

let harden netlist ~gates =
  let chosen = Hashtbl.create 16 in
  List.iter
    (fun id ->
      if id < 0 || id >= Netlist.node_count netlist then
        invalid_arg "Selective.harden: gate id out of range";
      if not (Gate.is_logic (Netlist.kind netlist id)) then
        invalid_arg "Selective.harden: only logic gates can be hardened";
      Hashtbl.replace chosen id ())
    gates;
  let b = B.create ~name:(Netlist.name netlist ^ "_hardened") () in
  let map = Array.make (Netlist.node_count netlist) (-1) in
  let voters = ref [] in
  List.iter
    (fun id ->
      let name =
        match (Netlist.info netlist id).Netlist.name with
        | Some n -> n
        | None -> Printf.sprintf "_in%d" id
      in
      map.(id) <- B.input b name)
    (Netlist.inputs netlist);
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind ->
        let fanins =
          Array.to_list (Array.map (fun f -> map.(f)) info.Netlist.fanins)
        in
        map.(id) <-
          (if Hashtbl.mem chosen id then begin
             let copy () = B.add b kind fanins in
             let c1 = copy () and c2 = copy () and c3 = copy () in
             let voter = B.maj3 b c1 c2 c3 in
             voters := voter :: !voters;
             voter
           end
           else B.add b kind fanins));
  List.iter
    (fun (name, node) -> B.output b name map.(node))
    (Netlist.outputs netlist);
  {
    netlist = B.finish b;
    voters = List.rev !voters;
    protected_gates = gates;
  }

let harden_top ?seed ?vectors ~fraction netlist =
  let result = Nano_faults.Criticality.analyze ?seed ?vectors netlist in
  let gates = Nano_faults.Criticality.top_fraction netlist result ~fraction in
  harden netlist ~gates

let harden_top_static ?input_probability ?cone_budget ~epsilon ~fraction
    netlist =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg "Selective.harden_top_static: fraction in [0, 1]";
  let analysis =
    Nano_static.Static.analyze ?input_probability ?cone_budget ~epsilon netlist
  in
  let ranked = Nano_static.Static.ranked_gates analysis netlist in
  let count =
    int_of_float (ceil (fraction *. float_of_int (List.length ranked)))
  in
  harden netlist ~gates:(List.filteri (fun i _ -> i < count) ranked)

let voter_epsilon_of hardened ~gate_epsilon ~voter_epsilon =
  let voter_set = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace voter_set v ()) hardened.voters;
  fun node -> if Hashtbl.mem voter_set node then voter_epsilon else gate_epsilon

let size_overhead ~original ~hardened =
  float_of_int (Netlist.size hardened.netlist)
  /. float_of_int (Netlist.size original)

(* The voter-robustness trade study as ONE simulation pass: each
   candidate voter ε is a lane of the heterogeneous grid kernel, so the
   whole sweep shares input draws and gate noise by common random
   numbers — differences between voter classes are measured with
   collapsed variance, and each lane still equals the corresponding
   stand-alone [simulate_heterogeneous] run bit-for-bit. *)
let sweep_voter_epsilons ?seed ?vectors ?input_probability ?jobs hardened
    ~gate_epsilon ~voter_epsilons =
  Nano_faults.Noisy_sim.profile_grid_heterogeneous ?seed ?vectors
    ?input_probability ?jobs
    ~epsilon_of_lanes:
      (Array.map
         (fun voter_epsilon ->
           voter_epsilon_of hardened ~gate_epsilon ~voter_epsilon)
         voter_epsilons)
    hardened.netlist
