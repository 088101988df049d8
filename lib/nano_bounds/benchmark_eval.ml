type row = {
  benchmark : string;
  epsilon : float;
  delta : float;
  energy_ratio : float;
  delay_ratio : float option;
  average_power_ratio : float option;
  energy_delay_ratio : float option;
  size_ratio : float;
}

let paper_epsilons = [ 0.001; 0.01; 0.1 ]
let paper_delta = 0.01

let evaluate_profile ?(delta = paper_delta) ?(leakage_share0 = 0.5) profile
    ~epsilon =
  let scenario = Profile.to_scenario profile ~epsilon ~delta ~leakage_share0 in
  let b = Metrics.evaluate scenario in
  {
    benchmark = profile.Profile.name;
    epsilon;
    delta;
    energy_ratio = b.Metrics.energy_ratio;
    delay_ratio = b.Metrics.delay_ratio;
    average_power_ratio = b.Metrics.average_power_ratio;
    energy_delay_ratio = b.Metrics.energy_delay_ratio;
    size_ratio = b.Metrics.size_ratio;
  }

let evaluate_suite ?delta ?leakage_share0 ?(epsilons = paper_epsilons) ?jobs
    profiles =
  (* One task per (profile, ε) cell, merged in row order — the grid is
     the unit of parallelism, and the output is independent of [jobs]. *)
  List.concat_map
    (fun profile -> List.map (fun epsilon -> (profile, epsilon)) epsilons)
    profiles
  |> Nano_util.Par.map_list ?jobs (fun (profile, epsilon) ->
         evaluate_profile ?delta ?leakage_share0 profile ~epsilon)

(* The δ-free half of a measured grid: per ε lane, the three figures a
   measured row reports. It reads neither δ nor the leakage share, which
   is what lets the service reuse it across δ revisits. *)
type lane = {
  any_output_error : float;
  average_gate_activity : float;
  vectors : int;
}

type measured_row = {
  row : row;
  measured_delta : float;
  measured_activity : float;
  vectors : int;
}

(* Analytic short-circuits for grid cells outside {!Metrics.evaluate}'s
   domain (it raises there). ε = 0: a perfect device needs no
   redundancy and shifts no activity — every ratio is exactly 1.
   δ >= 1/2: the reliability constraint is vacuous (a coin flip meets
   it), so Theorem 2's additional-gate count clamps to 0 (the PR 1
   [extra_gates] fix) and size_ratio is 1; the activity ratios are
   Theorem 1's, which never depended on δ; the depth bound is trivially
   met by the error-free implementation (ratio 1). *)
let degenerate_row profile ~epsilon ~delta ~leakage_share0 =
  let base ~activity_ratio ~idle_ratio =
    let energy_ratio =
      ((1. -. leakage_share0) *. activity_ratio)
      +. (leakage_share0 *. idle_ratio)
    in
    {
      benchmark = profile.Profile.name;
      epsilon;
      delta;
      energy_ratio;
      delay_ratio = Some 1.0;
      average_power_ratio = Some energy_ratio;
      energy_delay_ratio = Some energy_ratio;
      size_ratio = 1.0;
    }
  in
  if epsilon = 0. then base ~activity_ratio:1. ~idle_ratio:1.
  else begin
    let sw0 =
      Nano_util.Math_ext.clamp ~lo:1e-4 ~hi:(1. -. 1e-4) profile.Profile.sw0
    in
    let sw = Switching.noisy_activity ~epsilon sw0 in
    base ~activity_ratio:(sw /. sw0) ~idle_ratio:((1. -. sw) /. (1. -. sw0))
  end

let measure ?(epsilons = paper_epsilons) ?(vectors = 8192) ?seed ?jobs netlist =
  Array.map
    (fun m ->
      {
        any_output_error = m.Nano_faults.Noisy_sim.any_output_error;
        average_gate_activity = m.Nano_faults.Noisy_sim.average_gate_activity;
        vectors = m.Nano_faults.Noisy_sim.vectors;
      })
    (Nano_faults.Noisy_sim.profile_grid ?seed ~vectors ?jobs
       ~epsilons:(Array.of_list epsilons) netlist)

let check_deltas ~caller deltas =
  List.iter
    (fun d ->
      if not (d >= 0.) then
        invalid_arg ("Benchmark_eval." ^ caller ^ ": delta must be >= 0"))
    deltas

let measured_rows ?(deltas = [ paper_delta ]) ?(leakage_share0 = 0.5)
    ~epsilons ~profile (lanes : lane array) =
  check_deltas ~caller:"measured_rows" deltas;
  if List.length epsilons <> Array.length lanes then
    invalid_arg "Benchmark_eval.measured_rows: one lane per epsilon";
  List.concat
    (List.mapi
       (fun i epsilon ->
         let m = lanes.(i) in
         List.map
           (fun delta ->
             let row =
               if epsilon > 0. && delta < 0.5 then
                 evaluate_profile ~delta ~leakage_share0 profile ~epsilon
               else degenerate_row profile ~epsilon ~delta ~leakage_share0
             in
             {
               row;
               measured_delta = m.any_output_error;
               measured_activity = m.average_gate_activity;
               vectors = m.vectors;
             })
           deltas)
       epsilons)

let measured_grid ?(deltas = [ paper_delta ]) ?(leakage_share0 = 0.5)
    ?(epsilons = paper_epsilons) ?vectors ?seed ?jobs ?profile netlist =
  (* Refused before any measurement runs. *)
  check_deltas ~caller:"measured_grid" deltas;
  (* Sensitivity and noiseless activity once per circuit — they are
     ε-independent — then ONE batched Monte-Carlo pass over the whole ε
     set: all lanes share input draws and fault uniforms
     ({!Nano_faults.Noisy_sim.profile_grid}). *)
  let profile =
    match profile with Some p -> p | None -> Profile.of_netlist ?jobs netlist
  in
  measured_rows ~deltas ~leakage_share0 ~epsilons ~profile
    (measure ~epsilons ?vectors ?seed ?jobs netlist)
