type series = { label : string; points : (float * float) list }

let parity10 =
  {
    Metrics.epsilon = 0.01;
    delta = 0.01;
    fanin = 2;
    sensitivity = 10;
    error_free_size = 21;
    inputs = 10;
    sw0 = 0.5;
    leakage_share0 = 0.5;
  }

(* Every sweep below parallelizes over its grid with [Par.map_list],
   which preserves order and merges in index order: the series are
   bit-identical for every job count. *)

let fig2_activity_map ?(epsilons = [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ])
    ?(steps = 21) ?jobs () =
  let sws = Nano_util.Sweep.linear ~lo:0. ~hi:1. ~steps in
  Nano_util.Par.map_list ?jobs
    (fun epsilon ->
      {
        label = Printf.sprintf "eps=%.3g" epsilon;
        points =
          List.map (fun sw -> (sw, Switching.noisy_activity ~epsilon sw)) sws;
      })
    epsilons

let default_eps_grid = Nano_util.Sweep.epsilon_grid ~lo:1e-3 ~hi:0.49 ~steps:40

let fig3_redundancy ?(fanins = [ 2; 3; 4 ]) ?(epsilons = default_eps_grid ())
    ?(delta = 0.01) ?(sensitivity = 10) ?(error_free_size = 21) ?jobs () =
  List.map
    (fun fanin ->
      {
        label = Printf.sprintf "k=%d" fanin;
        points =
          Nano_util.Par.map_list ?jobs
            (fun epsilon ->
              let factor =
                Redundancy_bound.redundancy_factor
                  { Redundancy_bound.epsilon; delta; fanin; sensitivity }
                  ~error_free_size
              in
              (epsilon, factor))
            epsilons;
      })
    fanins

let fig4_leakage ?(sw0s = [ 0.1; 0.25; 0.5; 0.75; 0.9 ])
    ?(epsilons = default_eps_grid ()) ?jobs () =
  List.map
    (fun sw0 ->
      {
        label = Printf.sprintf "sw0=%.2f" sw0;
        points =
          Nano_util.Par.map_list ?jobs
            (fun epsilon -> (epsilon, Leakage.ratio_change ~epsilon ~sw0))
            epsilons;
      })
    sw0s

(* Figures 5 and 6 sweep ε inside Theorem 4's bounded region for each
   fanin; the sweep stops a hair below the feasibility supremum where the
   delay bound blows up. *)
let feasible_grid ~fanin ~steps =
  let sup = Metrics.feasible_epsilon_sup ~fanin in
  Nano_util.Sweep.logarithmic ~lo:1e-3 ~hi:(sup *. 0.98) ~steps

let metric_series ?jobs ~fanins ~steps ~extract ~tag () =
  List.concat_map
    (fun fanin ->
      let scenario = { parity10 with Metrics.fanin } in
      let points =
        Nano_util.Par.map_list ?jobs
          (fun epsilon ->
            let b = Metrics.evaluate { scenario with Metrics.epsilon } in
            Option.map (fun v -> (epsilon, v)) (extract b))
          (feasible_grid ~fanin ~steps)
        |> List.filter_map Fun.id
      in
      match tag with
      | [ single ] -> [ { label = Printf.sprintf "%s k=%d" single fanin; points } ]
      | _ -> [])
    fanins

let fig5_delay_and_edp ?(fanins = [ 2; 3; 4 ]) ?(steps = 30) ?jobs () =
  let delay =
    metric_series ?jobs ~fanins ~steps ~tag:[ "delay" ]
      ~extract:(fun b -> b.Metrics.delay_ratio)
      ()
  in
  let edp =
    metric_series ?jobs ~fanins ~steps ~tag:[ "edp" ]
      ~extract:(fun b -> b.Metrics.energy_delay_ratio)
      ()
  in
  delay @ edp

let fig6_average_power ?(fanins = [ 2; 3; 4 ]) ?(steps = 30) ?jobs () =
  metric_series ?jobs ~fanins ~steps ~tag:[ "power" ]
    ~extract:(fun b -> b.Metrics.average_power_ratio)
    ()

(* Measured δ̂(ε) per circuit, one BATCHED Monte-Carlo pass per circuit
   ({!Nano_faults.Noisy_sim.profile_grid}): every ε lane shares input
   draws and fault uniforms, so the series costs one simulation instead
   of one per grid point and its points are coupled by common random
   numbers (monotone in ε up to the collapsed residual variance).
   Parallelism shards vector words inside each pass rather than grid
   points across the pool, and results are jobs-independent. *)
let measured_delta ?(epsilons = default_eps_grid ()) ?(vectors = 8192) ?seed
    ?jobs circuits =
  let eps = Array.of_list epsilons in
  List.map
    (fun (name, netlist) ->
      let results =
        Nano_faults.Noisy_sim.profile_grid ?seed ~vectors ?jobs ~epsilons:eps
          netlist
      in
      {
        label = name;
        points =
          List.mapi
            (fun i e ->
              (e, results.(i).Nano_faults.Noisy_sim.any_output_error))
            epsilons;
      })
    circuits

let ablation_omega_models ?(fanin = 2) ?(epsilons = default_eps_grid ()) ?jobs
    () =
  let factor model epsilon =
    Redundancy_bound.redundancy_factor ~model
      {
        Redundancy_bound.epsilon;
        delta = 0.01;
        fanin;
        sensitivity = 10;
      }
      ~error_free_size:21
  in
  [
    {
      label = Printf.sprintf "gate-lumped k=%d" fanin;
      points =
        Nano_util.Par.map_list ?jobs
          (fun e -> (e, factor Redundancy_bound.Gate_lumped e))
          epsilons;
    };
    {
      label = Printf.sprintf "wire-split k=%d" fanin;
      points =
        Nano_util.Par.map_list ?jobs
          (fun e -> (e, factor Redundancy_bound.Wire_split e))
          epsilons;
    };
  ]
