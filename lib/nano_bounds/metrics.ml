type scenario = {
  epsilon : float;
  delta : float;
  fanin : int;
  sensitivity : int;
  error_free_size : int;
  inputs : int;
  sw0 : float;
  leakage_share0 : float;
}

let epsilon_valid e = e > 0. && e <= 0.5
let delta_valid d = d >= 0. && d < 0.5
let leakage_share_valid l = l >= 0. && l < 1.

let scenario_valid s =
  epsilon_valid s.epsilon && delta_valid s.delta
  && s.fanin >= 2 && s.sensitivity >= 1
  && s.error_free_size >= 1 && s.inputs >= 1
  && s.sw0 > 0. && s.sw0 < 1.
  && leakage_share_valid s.leakage_share0

type bounds = {
  size_ratio : float;
  activity_ratio : float;
  idle_ratio : float;
  switching_energy_ratio : float;
  energy_ratio : float;
  leakage_ratio_change : float;
  delay_ratio : float option;
  energy_delay_ratio : float option;
  average_power_ratio : float option;
}

let evaluate s =
  if not (scenario_valid s) then
    invalid_arg "Metrics.evaluate: invalid scenario";
  let rb_params =
    {
      Redundancy_bound.epsilon = s.epsilon;
      delta = s.delta;
      fanin = s.fanin;
      sensitivity = s.sensitivity;
    }
  in
  let size_ratio =
    Redundancy_bound.redundancy_factor rb_params
      ~error_free_size:s.error_free_size
  in
  let sw_noisy = Switching.noisy_activity ~epsilon:s.epsilon s.sw0 in
  let activity_ratio = sw_noisy /. s.sw0 in
  let idle_ratio = (1. -. sw_noisy) /. (1. -. s.sw0) in
  let switching_energy_ratio = size_ratio *. activity_ratio in
  let energy_ratio =
    size_ratio
    *. (((1. -. s.leakage_share0) *. activity_ratio)
        +. (s.leakage_share0 *. idle_ratio))
  in
  let leakage_ratio_change =
    Leakage.ratio_change ~epsilon:s.epsilon ~sw0:s.sw0
  in
  let delay_ratio =
    match
      Depth_bound.depth_ratio ~epsilon:s.epsilon ~delta:s.delta
        ~fanin:s.fanin ~inputs:s.inputs
    with
    | Depth_bound.Bounded r -> Some r
    (* No depth constraint below the xi^2 k threshold when n <= 1/Delta:
       the normalized ratio degenerates to the error-free baseline. *)
    | Depth_bound.Trivially_feasible _ -> Some 1.
    | Depth_bound.Infeasible _ -> None
  in
  {
    size_ratio;
    activity_ratio;
    idle_ratio;
    switching_energy_ratio;
    energy_ratio;
    leakage_ratio_change;
    delay_ratio;
    energy_delay_ratio = Option.map (fun d -> energy_ratio *. d) delay_ratio;
    average_power_ratio = Option.map (fun d -> energy_ratio /. d) delay_ratio;
  }

let explain s =
  if not (scenario_valid s) then
    invalid_arg "Metrics.explain: invalid scenario";
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (fun line -> Buffer.add_string buf (line ^ "\n")) fmt in
  let b = evaluate s in
  p "Scenario: eps=%g delta=%g k=%d s=%d S0=%d n=%d sw0=%g lambda0=%g"
    s.epsilon s.delta s.fanin s.sensitivity s.error_free_size s.inputs s.sw0
    s.leakage_share0;
  p "";
  p "Theorem 2 (minimum redundancy):";
  let w = Redundancy_bound.omega ~fanin:s.fanin s.epsilon in
  let t = Redundancy_bound.t_parameter ~omega:w in
  let log_t = Redundancy_bound.log2_t ~fanin:s.fanin s.epsilon in
  p "  omega = (1-(1-2eps)^k)/2 = %.6g" w;
  p "  t = (w^3+(1-w)^3)/(w(1-w)) = %s   log2 t = %.6g"
    (if Float.is_finite t then Printf.sprintf "%.6g" t
     else Printf.sprintf "2^%.6g" log_t)
    log_t;
  let extra =
    Redundancy_bound.extra_gates
      {
        Redundancy_bound.epsilon = s.epsilon;
        delta = s.delta;
        fanin = s.fanin;
        sensitivity = s.sensitivity;
      }
  in
  p "  extra gates >= (s log2 s + 2s log2(2(1-2delta))) / (k log2 t) = %.4g"
    extra;
  p "  size ratio >= max(1, 1 + extra/S0) = %.6g" b.size_ratio;
  p "";
  p "Theorem 1 (activity under noise):";
  let swe = Switching.noisy_activity ~epsilon:s.epsilon s.sw0 in
  p "  sw(eps) = (1-2eps)^2 sw0 + 2 eps (1-eps) = %.6g" swe;
  p "  activity ratio = %.6g   idle ratio = %.6g" b.activity_ratio
    b.idle_ratio;
  p "";
  p "Corollary 2 / energy:";
  p "  switching-energy ratio = size * activity = %.6g"
    b.switching_energy_ratio;
  p "  total-energy ratio = size * ((1-l0) act + l0 idle) = %.6g"
    b.energy_ratio;
  p "  Theorem 3 leakage-ratio change = %.6g" b.leakage_ratio_change;
  p "";
  p "Theorem 4 (depth):";
  let xi = Depth_bound.xi ~epsilon:s.epsilon in
  let cap = Depth_bound.delta_capacity ~delta:s.delta in
  p "  xi = 1-2eps = %.6g   xi^2 k = %.6g (feasible iff > 1)" xi
    (xi *. xi *. float_of_int s.fanin);
  p "  Delta = 1 - H(delta) = %.6g   n Delta = %.6g" cap
    (float_of_int s.inputs *. cap);
  (match b.delay_ratio with
  | Some d ->
    p "  depth ratio >= log(n Delta)/log(k xi^2) / log_k n = %.6g" d;
    (match b.energy_delay_ratio, b.average_power_ratio with
    | Some ed, Some pw ->
      p "  energy-delay ratio >= %.6g   average-power ratio >= %.6g" ed pw
    | _ -> ())
  | None ->
    p "  INFEASIBLE: xi^2 <= 1/k and n > 1/Delta — no (1-delta)-reliable circuit");
  Buffer.contents buf

let feasible_epsilon_sup ~fanin =
  if fanin < 2 then invalid_arg "Metrics.feasible_epsilon_sup: fanin >= 2";
  (1. -. (1. /. sqrt (float_of_int fanin))) /. 2.

let headline_energy_overhead ~epsilon ~delta s =
  let b = evaluate { s with epsilon; delta } in
  b.energy_ratio -. 1.
