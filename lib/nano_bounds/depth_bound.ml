type verdict =
  | Bounded of float
  | Trivially_feasible of { max_inputs : float }
  | Infeasible of { max_inputs : float }

let xi ~epsilon =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Depth_bound.xi: epsilon must lie in [0, 1/2]";
  1. -. (2. *. epsilon)

(* Below this distance u = 1/2 - δ, 1 - H(δ) cancels (relative error
   about 1e-16 / u^2); it sits under every δ the goldens use. *)
let series_below = 1e-3

let delta_capacity ~delta =
  if not (delta >= 0. && delta < 0.5) then
    invalid_arg "Depth_bound.delta_capacity: delta must lie in [0, 1/2)";
  let u = 0.5 -. delta in
  if u < series_below then begin
    (* 1 - H(1/2 - u) = sum over n >= 1 of (2u)^(2n) / (2n (2n - 1) ln 2);
       at u < 1e-3 each term is under 4e-6 times the one before. *)
    let x = 4. *. u *. u in
    let rec sum acc power n =
      let term = power /. float_of_int (2 * n * ((2 * n) - 1)) in
      if term <= acc *. epsilon_float then acc
      else sum (acc +. term) (power *. x) (n + 1)
    in
    sum 0. x 1 /. log 2.
  end
  else 1. -. Nano_util.Math_ext.binary_entropy delta

let check_common ~fanin ~inputs =
  if fanin < 2 then invalid_arg "Depth_bound: fanin must be >= 2";
  if inputs < 1 then invalid_arg "Depth_bound: inputs must be >= 1"

let min_depth ~epsilon ~delta ~fanin ~inputs =
  check_common ~fanin ~inputs;
  let x = xi ~epsilon in
  let cap = delta_capacity ~delta in
  let k = float_of_int fanin in
  let n = float_of_int inputs in
  if x *. x > 1. /. k then begin
    let arg = n *. cap in
    (* nΔ <= 1 makes the bound vacuous (non-positive). *)
    if arg <= 1. then Bounded 0.
    else
      Bounded
        (Nano_util.Math_ext.log2 arg /. Nano_util.Math_ext.log2 (k *. x *. x))
  end
  else begin
    (* Sub-threshold regime: the theorem has no depth bound here, only
       its feasibility precondition n <= 1/Delta — report which side of
       it we are on instead of a vacuous Bounded 0. *)
    let max_inputs = 1. /. cap in
    if n <= max_inputs then Trivially_feasible { max_inputs }
    else Infeasible { max_inputs }
  end

let error_free_depth ~fanin ~inputs =
  check_common ~fanin ~inputs;
  Nano_util.Math_ext.log2 (float_of_int inputs)
  /. Nano_util.Math_ext.log2 (float_of_int fanin)

let depth_ratio ~epsilon ~delta ~fanin ~inputs =
  let d0 = error_free_depth ~fanin ~inputs in
  match min_depth ~epsilon ~delta ~fanin ~inputs with
  | (Infeasible _ | Trivially_feasible _) as v -> v
  | Bounded d ->
    if d0 <= 0. then Bounded 1. else Bounded (Float.max 1. (d /. d0))
