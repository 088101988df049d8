module Activity = Nano_sim.Activity
module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder

let xor_circuit () =
  let b = B.create ~name:"x" () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b "f" (B.xor2 b x y);
  B.finish b

let and_circuit () =
  let b = B.create ~name:"a" () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b "f" (B.and2 b x y);
  B.finish b

let test_exact_xor () =
  let p = Activity.exact (xor_circuit ()) in
  (* XOR of two uniform inputs: p = 1/2, sw = 1/2. *)
  Helpers.check_float "gate activity" 0.5 p.Activity.average_gate_activity;
  Alcotest.(check int) "exact has no vectors" 0 p.Activity.vectors

let test_exact_and () =
  let p = Activity.exact (and_circuit ()) in
  (* AND: p = 1/4, sw = 2 * 1/4 * 3/4 = 3/8. *)
  Helpers.check_float "gate activity" 0.375 p.Activity.average_gate_activity

let test_exact_biased_inputs () =
  let p = Activity.exact ~input_probability:0.9 (and_circuit ()) in
  let expected_p = 0.81 in
  Helpers.check_float "activity" (2. *. expected_p *. (1. -. expected_p))
    p.Activity.average_gate_activity

let test_monte_carlo_converges () =
  let netlist = and_circuit () in
  let mc = Activity.monte_carlo ~vectors:65536 netlist in
  Helpers.check_in_range "mc close to exact" ~lo:0.36 ~hi:0.39
    mc.Activity.average_gate_activity;
  Alcotest.(check int) "vectors rounded" 65536 mc.Activity.vectors

let test_monte_carlo_deterministic () =
  let netlist = Helpers.random_netlist ~seed:5 ~inputs:4 ~gates:20 () in
  let a = Activity.monte_carlo ~seed:9 netlist in
  let b = Activity.monte_carlo ~seed:9 netlist in
  Alcotest.(check (array (float 0.)))
    "same seed same result" a.Activity.node_probability
    b.Activity.node_probability

(* The counted run is [monte_carlo]'s default run, and its counts give
   back its activities bit for bit, on every netlist shape. *)
let test_counts_give_monte_carlo () =
  List.iter
    (fun seed ->
      let netlist = Helpers.strash_shapes seed in
      let mc = Activity.monte_carlo netlist in
      let counted, counts = Activity.monte_carlo_counted netlist in
      Alcotest.(check bool) "same profile" true (counted = mc);
      let activity = Activity.node_activity_of_counts counts in
      Alcotest.(check int) "one count a node" (Netlist.node_count netlist)
        (Array.length activity);
      Alcotest.(check bool) "same activities" true
        (activity = mc.Activity.node_activity))
    (List.init 10 Fun.id)

let test_measured_toggle_matches_model () =
  (* Under temporal independence, the measured toggle rate equals
     2p(1-p) for every node. *)
  let netlist = Helpers.random_netlist ~seed:31 ~inputs:5 ~gates:25 () in
  let exact = Activity.exact netlist in
  let measured = Activity.measured_toggle_rate ~pairs:200000 netlist in
  Array.iteri
    (fun node sw ->
      let m = measured.(node) in
      if Float.abs (m -. sw) > 0.02 then
        Alcotest.failf "node %d: model %.4f measured %.4f" node sw m)
    exact.Activity.node_activity

let test_average_over_gates_excludes_sources () =
  let b = B.create () in
  let x = B.input b "x" in
  let inv = B.not_ b x in
  B.output b "o" inv;
  let n = B.finish b in
  let per_node = Array.make (Netlist.node_count n) 0. in
  per_node.(x) <- 100.;
  per_node.(inv) <- 2.;
  Helpers.check_float "only gate counted" 2.
    (Activity.average_over_gates n per_node)

let prop_mc_close_to_exact =
  QCheck2.Test.make ~name:"MC activity close to BDD-exact" ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:4 ~gates:15 () in
      let ex = Activity.exact n in
      let mc = Activity.monte_carlo ~vectors:16384 n in
      Float.abs
        (ex.Activity.average_gate_activity
        -. mc.Activity.average_gate_activity)
      < 0.02)

let test_exact_matches_per_root () =
  (* Activity.exact prices every node through one shared evaluator; the
     values must be bit-identical to pricing each node's diagram on its
     own, on and off the dyadic grid. *)
  List.iter
    (fun (name, netlist) ->
      List.iter
        (fun input_probability ->
          let shared =
            (Activity.exact ~input_probability netlist).Activity.node_probability
          in
          let m = Nano_bdd.Bdd.manager () in
          let p _ = input_probability in
          let per_root =
            Array.map
              (fun bdd -> Nano_bdd.Bdd.probability m ~p bdd)
              (Helpers.node_bdds m netlist)
          in
          Array.iteri
            (fun id x ->
              if Int64.bits_of_float x <> Int64.bits_of_float per_root.(id) then
                Alcotest.failf "%s p=%g node %d: shared %h, per root %h" name
                  input_probability id x per_root.(id))
            shared)
        [ 0.5; 0.3 ])
    [
      ("rca8", Nano_circuits.Adders.ripple_carry ~width:8);
      ("alu8", (Option.get (Nano_circuits.Suite.find "alu8")).build ());
    ]

let suite =
  [
    Alcotest.test_case "exact xor" `Quick test_exact_xor;
    Alcotest.test_case "exact and" `Quick test_exact_and;
    Alcotest.test_case "exact biased" `Quick test_exact_biased_inputs;
    Alcotest.test_case "monte carlo converges" `Quick test_monte_carlo_converges;
    Alcotest.test_case "monte carlo deterministic" `Quick
      test_monte_carlo_deterministic;
    Alcotest.test_case "counts give monte carlo's activities" `Quick
      test_counts_give_monte_carlo;
    Alcotest.test_case "toggle rate matches model" `Quick
      test_measured_toggle_matches_model;
    Alcotest.test_case "average over gates" `Quick
      test_average_over_gates_excludes_sources;
    Helpers.qcheck prop_mc_close_to_exact;
    Alcotest.test_case "exact shares one evaluator" `Quick
      test_exact_matches_per_root;
  ]
