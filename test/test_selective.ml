module Selective = Nano_redundancy.Selective
module Criticality = Nano_faults.Criticality
module Noisy_sim = Nano_faults.Noisy_sim
module Netlist = Nano_netlist.Netlist

let base () = Nano_circuits.Adders.ripple_carry ~width:4

let all_gates netlist =
  Netlist.fold netlist ~init:[] ~f:(fun acc id info ->
      match info.Netlist.kind with
      | Nano_netlist.Gate.Input | Nano_netlist.Gate.Const _
      | Nano_netlist.Gate.Buf -> acc
      | _ -> id :: acc)

let test_function_preserved () =
  let n = base () in
  let gates = all_gates n in
  let hardened = Selective.harden n ~gates in
  Helpers.assert_equivalent "full hardening" n hardened.Selective.netlist;
  let some = List.filteri (fun i _ -> i mod 3 = 0) gates in
  Helpers.assert_equivalent "partial hardening" n
    (Selective.harden n ~gates:some).Selective.netlist

let test_size_accounting () =
  let n = base () in
  let gates = all_gates n in
  let hardened = Selective.harden n ~gates in
  (* each hardened gate becomes 3 copies + 1 voter *)
  Alcotest.(check int) "4x per hardened gate"
    (4 * Netlist.size n)
    (Netlist.size hardened.Selective.netlist);
  Alcotest.(check int) "one voter per gate" (Netlist.size n)
    (List.length hardened.Selective.voters);
  Helpers.check_loose "overhead" 4. (Selective.size_overhead ~original:n ~hardened)

let test_invalid_targets () =
  let n = base () in
  Helpers.check_invalid "out of range" (fun () ->
      ignore (Selective.harden n ~gates:[ 9999 ]));
  let input = List.hd (Netlist.inputs n) in
  Helpers.check_invalid "input not hardenable" (fun () ->
      ignore (Selective.harden n ~gates:[ input ]))

let test_noisy_voters_are_neutral () =
  (* Von Neumann's caveat: with voters as noisy as the gates, per-gate
     TMR neither helps nor hurts much — the voter is the new single
     point of failure. *)
  let n = Nano_circuits.Trees.parity_tree ~inputs:16 ~fanin:2 in
  let epsilon = 0.01 in
  let hardened = Selective.harden n ~gates:(all_gates n) in
  let d_before =
    (Noisy_sim.simulate ~vectors:131072 ~epsilon n).Noisy_sim.any_output_error
  in
  let d_after =
    (Noisy_sim.simulate ~vectors:131072 ~epsilon hardened.Selective.netlist)
      .Noisy_sim.any_output_error
  in
  Helpers.check_in_range
    (Printf.sprintf "neutral: %.4f vs %.4f" d_after d_before)
    ~lo:(d_before *. 0.8) ~hi:(d_before *. 1.2) d_after

let test_robust_voters_help () =
  (* With voters from a 10x more reliable device class, full hardening
     must cut the parity tree's output error several-fold. *)
  let n = Nano_circuits.Trees.parity_tree ~inputs:16 ~fanin:2 in
  let epsilon = 0.01 in
  let hardened = Selective.harden n ~gates:(all_gates n) in
  let epsilon_of =
    Selective.voter_epsilon_of hardened ~gate_epsilon:epsilon
      ~voter_epsilon:(epsilon /. 10.)
  in
  let d_before =
    (Noisy_sim.simulate ~vectors:131072 ~epsilon n).Noisy_sim.any_output_error
  in
  let d_after =
    (Noisy_sim.simulate_heterogeneous ~vectors:131072 ~epsilon_of
       hardened.Selective.netlist)
      .Noisy_sim.any_output_error
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f < %.4f / 3" d_after d_before)
    true
    (d_after < d_before /. 3.)

let test_targeted_beats_untargeted () =
  (* Same budget, robust voters: hardening the most observable gates
     must beat hardening the least observable ones. The workload needs
     real logical masking (XOR-dominated circuits observe every fault,
     so all ranks tie): an AND tree masks everything below the root
     almost completely. *)
  let n = Nano_circuits.Trees.and_tree ~inputs:16 ~fanin:2 in
  let epsilon = 0.02 in
  let r = Criticality.analyze ~vectors:4096 n in
  let ranked = Criticality.ranked_gates n r in
  let k = List.length ranked / 3 in
  let top = List.filteri (fun i _ -> i < k) ranked in
  let bottom = List.filteri (fun i _ -> i >= List.length ranked - k) ranked in
  let delta gates =
    let hardened = Selective.harden n ~gates in
    let epsilon_of =
      Selective.voter_epsilon_of hardened ~gate_epsilon:epsilon
        ~voter_epsilon:(epsilon /. 20.)
    in
    (Noisy_sim.simulate_heterogeneous ~vectors:262144 ~epsilon_of
       hardened.Selective.netlist)
      .Noisy_sim.any_output_error
  in
  let d_top = delta top and d_bottom = delta bottom in
  Alcotest.(check bool)
    (Printf.sprintf "top %.4f < bottom %.4f" d_top d_bottom)
    true (d_top < d_bottom)

let test_harden_top () =
  let n = base () in
  let hardened = Selective.harden_top ~fraction:0.25 n in
  Alcotest.(check bool) "some gates picked" true
    (List.length hardened.Selective.protected_gates > 0);
  Helpers.assert_equivalent "still equivalent" n hardened.Selective.netlist

let test_heterogeneous_simulation_basics () =
  (* epsilon_of = const eps must agree with the homogeneous simulator
     given the same seed. *)
  let n = base () in
  let a = Noisy_sim.simulate ~seed:7 ~vectors:8192 ~epsilon:0.03 n in
  let b =
    Noisy_sim.simulate_heterogeneous ~seed:7 ~vectors:8192
      ~epsilon_of:(fun _ -> 0.03)
      n
  in
  Helpers.check_float "same delta" a.Noisy_sim.any_output_error
    b.Noisy_sim.any_output_error;
  Helpers.check_float "mean epsilon" 0.03 b.Noisy_sim.epsilon

let test_sweep_voter_epsilons () =
  (* Each lane of the fused sweep must equal, field for field, a
     stand-alone heterogeneous run with the same voter_epsilon_of
     assignment, and the whole sweep must be jobs-invariant. The last
     two points are the eight-class trade study on c17 and mapped rca8
     at 2^16 vectors on the default seed. *)
  let gate_epsilon = 0.01 in
  let check_point (name, hardened, voter_epsilons, seed, vectors) =
    let sweep ?jobs () =
      Selective.sweep_voter_epsilons ?seed ~vectors ?jobs hardened
        ~gate_epsilon ~voter_epsilons
    in
    let fused = sweep () in
    Alcotest.(check int)
      (name ^ ": one result per voter class")
      (Array.length voter_epsilons)
      (Array.length fused);
    Array.iteri
      (fun k voter_epsilon ->
        let epsilon_of =
          Selective.voter_epsilon_of hardened ~gate_epsilon ~voter_epsilon
        in
        let solo =
          Noisy_sim.simulate_heterogeneous ?seed ~vectors ~epsilon_of
            hardened.Selective.netlist
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: lane %d = stand-alone run" name k)
          true (solo = fused.(k)))
      voter_epsilons;
    Alcotest.(check bool)
      (name ^ ": jobs 4 = jobs 1")
      true
      (sweep ~jobs:4 () = fused)
  in
  let top_quarter circuit =
    Selective.harden_top ~seed:0x9e7e ~fraction:0.25 circuit
  in
  let eight_classes = Array.init 8 (fun i -> 0.0005 *. float_of_int (i + 1)) in
  List.iter check_point
    [
      ( "rca4",
        Selective.harden_top ~fraction:0.5 (base ()),
        [| 0.0005; 0.002; 0.008 |],
        Some 23,
        4096 );
      ( "c17",
        top_quarter (Nano_circuits.Iscas_like.c17 ()),
        eight_classes,
        None,
        1 lsl 16 );
      ( "mapped rca8",
        top_quarter
          (Nano_synth.Script.rugged_lite
             (Nano_circuits.Adders.ripple_carry ~width:8)),
        eight_classes,
        None,
        1 lsl 16 );
    ]

let suite =
  [
    Alcotest.test_case "function preserved" `Quick test_function_preserved;
    Alcotest.test_case "size accounting" `Quick test_size_accounting;
    Alcotest.test_case "invalid targets" `Quick test_invalid_targets;
    Alcotest.test_case "noisy voters neutral (von Neumann)" `Quick
      test_noisy_voters_are_neutral;
    Alcotest.test_case "robust voters help" `Quick test_robust_voters_help;
    Alcotest.test_case "targeted beats untargeted" `Quick
      test_targeted_beats_untargeted;
    Alcotest.test_case "harden_top" `Quick test_harden_top;
    Alcotest.test_case "heterogeneous sim basics" `Quick
      test_heterogeneous_simulation_basics;
    Alcotest.test_case "fused voter-epsilon sweep" `Quick
      test_sweep_voter_epsilons;
  ]
