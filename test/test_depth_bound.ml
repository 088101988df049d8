module DB = Nano_bounds.Depth_bound

let test_xi_delta () =
  Helpers.check_float "xi(0)" 1. (DB.xi ~epsilon:0.);
  Helpers.check_float "xi(1/4)" 0.5 (DB.xi ~epsilon:0.25);
  Helpers.check_float "xi(1/2)" 0. (DB.xi ~epsilon:0.5);
  (* Delta = 1 - H(delta). *)
  Helpers.check_float "Delta(0)" 1. (DB.delta_capacity ~delta:0.);
  Helpers.check_loose "Delta(0.01)"
    (1. -. Nano_util.Math_ext.binary_entropy 0.01)
    (DB.delta_capacity ~delta:0.01)

let test_noiseless_depth () =
  (* eps = 0: bound reduces to log_k(n * Delta) which is at most
     log_k n — consistent with the classical fanin argument. *)
  match DB.min_depth ~epsilon:0. ~delta:0.01 ~fanin:2 ~inputs:16 with
  | DB.Bounded d ->
    Helpers.check_in_range "close to log2 16" ~lo:3.8 ~hi:4. d
  | DB.Trivially_feasible _ | DB.Infeasible _ ->
    Alcotest.fail "should be a real bound"

let test_feasibility_threshold () =
  (* xi^2 > 1/k boundary: for k = 2, eps* = (1 - 1/sqrt 2)/2 ~ 0.1464. *)
  let sup = Nano_bounds.Metrics.feasible_epsilon_sup ~fanin:2 in
  Helpers.check_loose "threshold" ((1. -. (1. /. sqrt 2.)) /. 2.) sup;
  (match DB.min_depth ~epsilon:(sup -. 0.001) ~delta:0.01 ~fanin:2 ~inputs:10 with
  | DB.Bounded _ -> ()
  | DB.Trivially_feasible _ | DB.Infeasible _ ->
    Alcotest.fail "just below threshold must be bounded");
  match DB.min_depth ~epsilon:(sup +. 0.001) ~delta:0.01 ~fanin:2 ~inputs:10 with
  | DB.Infeasible { max_inputs } ->
    (* 1/Delta for delta = 0.01 is about 1.088. *)
    Helpers.check_in_range "max inputs" ~lo:1.05 ~hi:1.12 max_inputs
  | DB.Bounded _ | DB.Trivially_feasible _ ->
    Alcotest.fail "just above threshold must be infeasible"

let test_small_function_always_feasible () =
  (* n <= 1/Delta survives even past the threshold, and the verdict now
     names the feasibility cap explicitly instead of faking a 0 bound. *)
  match DB.min_depth ~epsilon:0.4 ~delta:0.01 ~fanin:2 ~inputs:1 with
  | DB.Trivially_feasible { max_inputs } ->
    (* 1/Delta for delta = 0.01 is about 1.088. *)
    Helpers.check_in_range "feasibility cap 1/Delta" ~lo:1.05 ~hi:1.12
      max_inputs
  | DB.Bounded _ ->
    Alcotest.fail "sub-threshold point must report the n <= 1/Delta case"
  | DB.Infeasible _ -> Alcotest.fail "single input is always computable"

let test_larger_fanin_extends_feasibility () =
  (* At eps = 0.2, k=2 is infeasible but k=8 still works:
     xi^2 = 0.36 > 1/8. *)
  (match DB.min_depth ~epsilon:0.2 ~delta:0.01 ~fanin:2 ~inputs:10 with
  | DB.Infeasible _ -> ()
  | DB.Bounded _ | DB.Trivially_feasible _ ->
    Alcotest.fail "k=2 at eps=0.2 must be infeasible");
  match DB.min_depth ~epsilon:0.2 ~delta:0.01 ~fanin:8 ~inputs:10 with
  | DB.Bounded d -> Alcotest.(check bool) "positive depth" true (d > 0.)
  | DB.Trivially_feasible _ | DB.Infeasible _ ->
    Alcotest.fail "k=8 at eps=0.2 must be feasible"

let test_depth_ratio_clamped () =
  match DB.depth_ratio ~epsilon:0.001 ~delta:0.01 ~fanin:2 ~inputs:10 with
  | DB.Bounded r -> Alcotest.(check bool) "at least 1" true (r >= 1.)
  | DB.Trivially_feasible _ | DB.Infeasible _ -> Alcotest.fail "feasible"

let test_error_free_depth () =
  Helpers.check_float "log2 16" 4. (DB.error_free_depth ~fanin:2 ~inputs:16);
  Helpers.check_loose "log3 9" 2. (DB.error_free_depth ~fanin:3 ~inputs:9)

let test_domain () =
  Helpers.check_invalid "fanin 1" (fun () ->
      ignore (DB.min_depth ~epsilon:0.1 ~delta:0.01 ~fanin:1 ~inputs:4));
  Helpers.check_invalid "inputs 0" (fun () ->
      ignore (DB.min_depth ~epsilon:0.1 ~delta:0.01 ~fanin:2 ~inputs:0));
  Helpers.check_invalid "delta 0.5" (fun () ->
      ignore (DB.delta_capacity ~delta:0.5))

let prop_depth_grows_with_epsilon =
  QCheck2.Test.make ~name:"depth bound grows with eps inside feasibility"
    ~count:200
    QCheck2.Gen.(pair (float_range 0.005 0.12) (float_range 1.05 1.2))
    (fun (eps, factor) ->
      let eps2 = Float.min 0.14 (eps *. factor) in
      match
        ( DB.min_depth ~epsilon:eps ~delta:0.01 ~fanin:2 ~inputs:32,
          DB.min_depth ~epsilon:eps2 ~delta:0.01 ~fanin:2 ~inputs:32 )
      with
      | DB.Bounded d1, DB.Bounded d2 -> d2 >= d1 -. 1e-9
      | _ -> false)

let prop_depth_grows_with_inputs =
  QCheck2.Test.make ~name:"depth bound grows with inputs" ~count:200
    QCheck2.Gen.(pair (int_range 2 100) (int_range 1 100))
    (fun (n, dn) ->
      match
        ( DB.min_depth ~epsilon:0.05 ~delta:0.01 ~fanin:2 ~inputs:n,
          DB.min_depth ~epsilon:0.05 ~delta:0.01 ~fanin:2 ~inputs:(n + dn) )
      with
      | DB.Bounded d1, DB.Bounded d2 -> d2 >= d1 -. 1e-9
      | _ -> false)

(* Near δ = 1/2, 1 - H(δ) cancels (to 0 at u = 1e-9); Δ must follow
   its series in u = 1/2 - δ, whose first three terms are exact to a
   relative 1e-18 at these u. *)
let test_delta_capacity_near_half () =
  List.iter
    (fun target ->
      let delta = 0.5 -. target in
      let u = 0.5 -. delta in
      let x = 4. *. u *. u in
      let series =
        (x /. 2. +. (x *. x /. 12.) +. (x *. x *. x /. 30.)) /. log 2.
      in
      let got = DB.delta_capacity ~delta in
      if Float.abs ((got /. series) -. 1.) > 1e-12 then
        Alcotest.failf "Delta at u = %g: %.17g, series %.17g" u got series)
    [ 1e-6; 1e-8; 1e-9 ]

let suite =
  [
    Alcotest.test_case "xi/Delta" `Quick test_xi_delta;
    Alcotest.test_case "Delta near 1/2" `Quick test_delta_capacity_near_half;
    Alcotest.test_case "noiseless depth" `Quick test_noiseless_depth;
    Alcotest.test_case "feasibility threshold" `Quick
      test_feasibility_threshold;
    Alcotest.test_case "small function feasible" `Quick
      test_small_function_always_feasible;
    Alcotest.test_case "fanin extends feasibility" `Quick
      test_larger_fanin_extends_feasibility;
    Alcotest.test_case "depth ratio clamped" `Quick test_depth_ratio_clamped;
    Alcotest.test_case "error-free depth" `Quick test_error_free_depth;
    Alcotest.test_case "domain" `Quick test_domain;
    Helpers.qcheck prop_depth_grows_with_epsilon;
    Helpers.qcheck prop_depth_grows_with_inputs;
  ]
