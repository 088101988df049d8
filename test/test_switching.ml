module Switching = Nano_bounds.Switching

let test_formula () =
  (* Theorem 1 at eps = 0.1: sw' = 0.64 sw + 0.18. *)
  Helpers.check_float "sw=0.3" 0.372 (Switching.noisy_activity ~epsilon:0.1 0.3);
  Helpers.check_float "identity at eps=0" 0.3
    (Switching.noisy_activity ~epsilon:0. 0.3);
  Helpers.check_float "constant at eps=1/2" 0.5
    (Switching.noisy_activity ~epsilon:0.5 0.123)

let test_fixed_point () =
  Helpers.check_float "value" 0.5 Switching.fixed_point;
  List.iter
    (fun epsilon ->
      Helpers.check_float "invariant" 0.5
        (Switching.noisy_activity ~epsilon 0.5))
    [ 0.; 0.01; 0.3; 0.5 ]

let test_domain () =
  Helpers.check_invalid "eps too big" (fun () ->
      ignore (Switching.noisy_activity ~epsilon:0.6 0.1));
  Helpers.check_invalid "eps negative" (fun () ->
      ignore (Switching.noisy_activity ~epsilon:(-0.1) 0.1));
  Helpers.check_invalid "sw out of range" (fun () ->
      ignore (Switching.noisy_activity ~epsilon:0.1 1.5));
  Alcotest.(check bool) "valid domain" true (Switching.valid_epsilon 0.25);
  Alcotest.(check bool) "invalid" false (Switching.valid_epsilon 0.75)

let test_inverse () =
  let epsilon = 0.1 in
  (match Switching.inverse ~epsilon (Switching.noisy_activity ~epsilon 0.3) with
  | Some sw -> Helpers.check_loose "roundtrip" 0.3 sw
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "no inverse at 1/2" true
    (Switching.inverse ~epsilon:0.5 0.4 = None);
  (* sw_z below the reachable band has no preimage *)
  Alcotest.(check bool) "unreachable" true
    (Switching.inverse ~epsilon:0.2 0.01 = None)

let test_contraction_factor () =
  Helpers.check_float "eps 0" 1. (Switching.contraction_factor ~epsilon:0.);
  Helpers.check_float "eps 0.25" 0.25
    (Switching.contraction_factor ~epsilon:0.25);
  Helpers.check_float "eps 0.5" 0. (Switching.contraction_factor ~epsilon:0.5)

let test_probability_map () =
  Helpers.check_float "p map" 0.34
    (Switching.noisy_probability ~epsilon:0.1 0.3);
  Helpers.check_float "activity of p" 0.42
    (Switching.activity_of_probability 0.3)

let test_activity_probability_consistency () =
  (* Theorem 1 must agree with pushing p through the channel and
     recomputing sw = 2p(1-p). *)
  let epsilon = 0.07 in
  List.iter
    (fun p ->
      let sw' =
        Switching.activity_of_probability
          (Switching.noisy_probability ~epsilon p)
      in
      Helpers.check_loose "consistent" sw'
        (Switching.noisy_activity ~epsilon
           (Switching.activity_of_probability p)))
    [ 0.; 0.1; 0.3; 0.5; 0.77; 1. ]

(* The paper's Figure 2 observation: noise pushes activity toward 1/2,
   making quiet gates busier and busy gates quieter. *)
let prop_toward_half =
  QCheck2.Test.make ~name:"noise drives activity toward 1/2" ~count:300
    QCheck2.Gen.(pair (float_range 0.001 0.499) (float_range 0. 1.))
    (fun (epsilon, sw) ->
      let sw' = Switching.noisy_activity ~epsilon sw in
      if sw < 0.5 then sw' >= sw && sw' <= 0.5
      else sw' <= sw && sw' >= 0.5)

let prop_monotone_in_sw =
  QCheck2.Test.make ~name:"map is increasing in sw" ~count:300
    QCheck2.Gen.(triple (float_range 0. 0.49) (float_range 0. 1.) (float_range 0. 1.))
    (fun (epsilon, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Switching.noisy_activity ~epsilon lo
      <= Switching.noisy_activity ~epsilon hi +. 1e-12)

let prop_matches_simulation =
  (* End-to-end: Theorem 1 against Monte-Carlo fault injection on a
     single gate. *)
  QCheck2.Test.make ~name:"Theorem 1 matches fault injection" ~count:8
    QCheck2.Gen.(float_range 0.01 0.3)
    (fun epsilon ->
      let b = Nano_netlist.Netlist.Builder.create () in
      let x = Nano_netlist.Netlist.Builder.input b "x" in
      let y = Nano_netlist.Netlist.Builder.input b "y" in
      Nano_netlist.Netlist.Builder.output b "o"
        (Nano_netlist.Netlist.Builder.and2 b x y);
      let n = Nano_netlist.Netlist.Builder.finish b in
      let r = Nano_faults.Noisy_sim.simulate ~vectors:200000 ~epsilon n in
      (* AND of uniform inputs: sw0 = 3/8. *)
      let predicted = Switching.noisy_activity ~epsilon 0.375 in
      Float.abs (r.Nano_faults.Noisy_sim.average_gate_activity -. predicted)
      < 0.01)

let suite =
  [
    Alcotest.test_case "formula" `Quick test_formula;
    Alcotest.test_case "fixed point" `Quick test_fixed_point;
    Alcotest.test_case "domain" `Quick test_domain;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "contraction factor" `Quick test_contraction_factor;
    Alcotest.test_case "probability map" `Quick test_probability_map;
    Helpers.qcheck prop_toward_half;
    Helpers.qcheck prop_monotone_in_sw;
    Helpers.qcheck prop_matches_simulation;
    Alcotest.test_case "activity/probability consistency" `Quick
      test_activity_probability_consistency;
  ]
