module Noisy_sim = Nano_faults.Noisy_sim
module Trees = Nano_circuits.Trees

let test_zero_noise_is_golden () =
  let n = Helpers.random_netlist ~seed:41 ~inputs:5 ~gates:25 () in
  let r = Noisy_sim.simulate ~epsilon:0. n in
  Helpers.check_float "no output errors" 0. r.Noisy_sim.any_output_error;
  List.iter
    (fun (name, e) -> Helpers.check_float name 0. e)
    r.Noisy_sim.per_output_error;
  Helpers.check_float "full reliability" 1. (Noisy_sim.output_reliability r)

let test_single_gate_error_rate () =
  (* One inverter: its output must be wrong exactly eps of the time. *)
  let b = Nano_netlist.Netlist.Builder.create () in
  let x = Nano_netlist.Netlist.Builder.input b "x" in
  Nano_netlist.Netlist.Builder.output b "o"
    (Nano_netlist.Netlist.Builder.not_ b x);
  let n = Nano_netlist.Netlist.Builder.finish b in
  let r = Noisy_sim.simulate ~vectors:200000 ~epsilon:0.05 n in
  Helpers.check_in_range "delta ~ eps" ~lo:0.045 ~hi:0.055
    r.Noisy_sim.any_output_error

let test_theorem1_single_gate () =
  (* Theorem 1 is exact for a single noisy gate fed by noise-free
     inputs: measured activity of the noisy XOR output must equal
     (1-2e)^2 * 0.5 + 2e(1-e). *)
  let b = Nano_netlist.Netlist.Builder.create () in
  let x = Nano_netlist.Netlist.Builder.input b "x" in
  let y = Nano_netlist.Netlist.Builder.input b "y" in
  let g = Nano_netlist.Netlist.Builder.xor2 b x y in
  Nano_netlist.Netlist.Builder.output b "o" g;
  let n = Nano_netlist.Netlist.Builder.finish b in
  let epsilon = 0.1 in
  let r = Noisy_sim.simulate ~vectors:400000 ~epsilon n in
  let predicted = Nano_bounds.Switching.noisy_activity ~epsilon 0.5 in
  Helpers.check_in_range "Thm1 exact for one gate"
    ~lo:(predicted -. 0.01) ~hi:(predicted +. 0.01)
    r.Noisy_sim.average_gate_activity

let test_delta_grows_with_epsilon () =
  let n = Trees.parity_tree ~inputs:16 ~fanin:2 in
  let d eps =
    (Noisy_sim.simulate ~vectors:8192 ~epsilon:eps n).Noisy_sim.any_output_error
  in
  let d1 = d 0.001 and d2 = d 0.01 and d3 = d 0.1 in
  Alcotest.(check bool) "monotone" true (d1 < d2 && d2 < d3)

let test_parity_tree_error_accumulation () =
  (* A parity tree propagates any odd number of gate flips to the
     output: delta ~ 1/2 (1 - (1-2e)^G) for G gates. *)
  let gates = 15 in
  let n = Trees.parity_tree ~inputs:16 ~fanin:2 in
  let epsilon = 0.01 in
  let r = Noisy_sim.simulate ~vectors:200000 ~epsilon n in
  let predicted =
    0.5 *. (1. -. ((1. -. (2. *. epsilon)) ** float_of_int gates))
  in
  Helpers.check_in_range "parity delta"
    ~lo:(predicted -. 0.01) ~hi:(predicted +. 0.01)
    r.Noisy_sim.any_output_error

let test_determinism () =
  let n = Helpers.random_netlist ~seed:2 ~inputs:4 ~gates:20 () in
  let a = Noisy_sim.simulate ~seed:5 ~epsilon:0.02 n in
  let b = Noisy_sim.simulate ~seed:5 ~epsilon:0.02 n in
  Helpers.check_float "same seed same delta" a.Noisy_sim.any_output_error
    b.Noisy_sim.any_output_error

let exact = Alcotest.float 0.

let suite_circuit = Helpers.suite_circuit

(* Golden values recorded from the single-threaded simulator before the
   parallel engine landed (seed 0xfa17, 4096 vectors, eps 0.02). The
   seed-sharded engine must reproduce them bit-for-bit at every job
   count — these literals pin both the PRNG stream layout and the
   shard-merge arithmetic. *)
let pre_parallel_golden =
  [
    ("c17", 0.0947265625, 0.44905598958333331, 0.498291015625);
    ("rca8", 0.374267578125, 0.49907430013020831, 0.504150390625);
    ("parity16", 0.230712890625, 0.49799804687499999, 0.50146484375);
  ]

let test_jobs_reproduce_sequential_golden () =
  List.iter
    (fun (name, any, activity, p0) ->
      let circuit = suite_circuit name in
      List.iter
        (fun jobs ->
          let r =
            Noisy_sim.simulate ~seed:0xfa17 ~vectors:4096 ~jobs ~epsilon:0.02
              circuit
          in
          let tag fmt = Printf.sprintf "%s jobs=%d %s" name jobs fmt in
          Alcotest.check exact (tag "delta") any r.Noisy_sim.any_output_error;
          Alcotest.check exact (tag "activity") activity
            r.Noisy_sim.average_gate_activity;
          Alcotest.check exact (tag "node0 prob") p0
            r.Noisy_sim.node_probability.(0))
        [ 1; 2; 4 ])
    pre_parallel_golden

let test_jobs_identical_fields () =
  (* Beyond the pinned scalars: every field of the result must be
     bit-identical across job counts, including per-node arrays. The
     second point is the long run: mapped rca8 at 2^18 vectors on the
     default seed. *)
  let mapped_rca8 =
    Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)
  in
  List.iter
    (fun (name, circuit, seed, vectors, epsilon, job_counts) ->
      let run jobs = Noisy_sim.simulate ?seed ~vectors ~jobs ~epsilon circuit in
      let r1 = run 1 in
      List.iter
        (fun jobs ->
          let r = run jobs in
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d equals jobs=1" name jobs)
            true (r = r1))
        job_counts)
    [
      ("rca8", suite_circuit "rca8", Some 7, 2048, 0.03, [ 2; 3; 4; 5 ]);
      ("mapped rca8", mapped_rca8, None, 1 lsl 18, 0.01, [ 2; 4 ]);
    ]

let test_jobs_heterogeneous () =
  let circuit = suite_circuit "c17" in
  let epsilon_of id = if id mod 2 = 0 then 0.01 else 0.05 in
  let run jobs =
    Noisy_sim.simulate_heterogeneous ~seed:11 ~vectors:2048 ~jobs ~epsilon_of
      circuit
  in
  let r1 = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "heterogeneous jobs=%d" jobs)
        true
        (run jobs = r1))
    [ 2; 4 ]

let test_jobs_invalid () =
  Helpers.check_invalid "jobs=0 rejected" (fun () ->
      ignore (Noisy_sim.simulate ~jobs:0 ~epsilon:0.01 (suite_circuit "c17")))

(* Every Monte-Carlo entry point refuses a non-positive vector budget
   up front, naming the argument, instead of dividing by a zero vector
   count (NaN rates) or failing deep inside the word arithmetic. *)
let test_vectors_invalid () =
  let n = suite_circuit "c17" in
  let check name f =
    List.iter
      (fun vectors ->
        Alcotest.check_raises
          (Printf.sprintf "%s vectors=%d" name vectors)
          (Invalid_argument (name ^ ": vectors must be >= 1"))
          (fun () -> ignore (f vectors)))
      [ 0; -1 ]
  in
  let epsilon_of _ = 0.01 in
  check "Noisy_sim.run" (fun vectors ->
      Noisy_sim.simulate ~vectors ~epsilon:0.01 n);
  check "Noisy_sim.run" (fun vectors ->
      Noisy_sim.simulate_heterogeneous ~vectors ~epsilon_of n);
  check "Noisy_sim.profile_grid" (fun vectors ->
      Noisy_sim.profile_grid ~vectors ~epsilons:[| 0.01; 0.02 |] n);
  check "Noisy_sim.profile_grid_heterogeneous" (fun vectors ->
      Noisy_sim.profile_grid_heterogeneous ~vectors
        ~epsilon_of_lanes:[| epsilon_of |] n);
  check "Criticality.analyze" (fun vectors ->
      Nano_faults.Criticality.analyze ~vectors n)

(* The input density gets the same up-front check, under the entry
   point's own name and on both engines, instead of surfacing from
   inside the shard loop as a [Prng.word_with_density] error. *)
let test_input_probability_invalid () =
  let n = suite_circuit "c17" in
  let check name f =
    List.iter
      (fun input_probability ->
        Alcotest.check_raises
          (Printf.sprintf "%s input_probability=%g" name input_probability)
          (Invalid_argument (name ^ ": input_probability must lie in [0, 1]"))
          (fun () -> ignore (f input_probability)))
      [ 1.5; -0.1; Float.nan ]
  in
  let epsilon_of _ = 0.01 in
  List.iter
    (fun engine ->
      check "Noisy_sim.run" (fun input_probability ->
          Noisy_sim.simulate ~engine ~input_probability ~epsilon:0.01 n);
      check "Noisy_sim.run" (fun input_probability ->
          Noisy_sim.simulate_heterogeneous ~engine ~input_probability
            ~epsilon_of n))
    [ `Compiled; `Interp ];
  check "Noisy_sim.profile_grid" (fun input_probability ->
      Noisy_sim.profile_grid ~input_probability ~epsilons:[| 0.01; 0.02 |] n);
  check "Noisy_sim.profile_grid_heterogeneous" (fun input_probability ->
      Noisy_sim.profile_grid_heterogeneous ~input_probability
        ~epsilon_of_lanes:[| epsilon_of |] n)

let test_coin_flip_limit () =
  (* At eps = 1/2 every gate output is uniform noise: a single-gate
     output is wrong half of the time. *)
  let b = Nano_netlist.Netlist.Builder.create () in
  let x = Nano_netlist.Netlist.Builder.input b "x" in
  Nano_netlist.Netlist.Builder.output b "o"
    (Nano_netlist.Netlist.Builder.not_ b x);
  let n = Nano_netlist.Netlist.Builder.finish b in
  let r = Noisy_sim.simulate ~vectors:100000 ~epsilon:0.5 n in
  Helpers.check_in_range "useless device" ~lo:0.49 ~hi:0.51
    r.Noisy_sim.any_output_error

(* The noise word flips each lane with probability epsilon, and away
   from 1/2 it is the word [Prng.word_with_density] draws. *)
let test_noise_word_density () =
  let rng = Nano_util.Prng.create ~seed:8 in
  let twin = Nano_util.Prng.create ~seed:8 in
  let total = ref 0 in
  let words = 4000 in
  for _ = 1 to words do
    let w = Noisy_sim.noise_word rng ~epsilon:0.125 in
    Alcotest.(check int64) "word_with_density's word"
      (Nano_util.Prng.word_with_density twin ~p:0.125) w;
    total := !total + Nano_util.Bits.popcount64 w
  done;
  Helpers.check_in_range "density" ~lo:0.118 ~hi:0.132
    (float_of_int !total /. float_of_int (64 * words))

let prop_any_error_dominates_each_output =
  QCheck2.Test.make ~name:"any-output error >= each per-output error"
    ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:4 ~gates:15 () in
      let r = Noisy_sim.simulate ~vectors:4096 ~epsilon:0.05 n in
      List.for_all
        (fun (_, e) -> e <= r.Noisy_sim.any_output_error +. 1e-9)
        r.Noisy_sim.per_output_error)

let suite =
  [
    Alcotest.test_case "zero noise" `Quick test_zero_noise_is_golden;
    Alcotest.test_case "single gate error rate" `Quick
      test_single_gate_error_rate;
    Alcotest.test_case "Theorem 1 single gate" `Quick test_theorem1_single_gate;
    Alcotest.test_case "delta grows with eps" `Quick
      test_delta_grows_with_epsilon;
    Alcotest.test_case "parity error accumulation" `Quick
      test_parity_tree_error_accumulation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "jobs reproduce sequential golden" `Quick
      test_jobs_reproduce_sequential_golden;
    Alcotest.test_case "jobs identical fields" `Quick test_jobs_identical_fields;
    Alcotest.test_case "jobs heterogeneous" `Quick test_jobs_heterogeneous;
    Alcotest.test_case "jobs invalid" `Quick test_jobs_invalid;
    Alcotest.test_case "vectors invalid" `Quick test_vectors_invalid;
    Alcotest.test_case "input_probability invalid" `Quick
      test_input_probability_invalid;
    Alcotest.test_case "coin flip limit" `Quick test_coin_flip_limit;
    Alcotest.test_case "noise word density" `Quick test_noise_word_density;
    Helpers.qcheck prop_any_error_dominates_each_output;
  ]
