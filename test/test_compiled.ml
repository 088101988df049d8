module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Compiled = Nano_netlist.Compiled
module Noisy_sim = Nano_faults.Noisy_sim
module Prng = Nano_util.Prng
module Random_circuit = Nano_circuits.Random_circuit

(* ------------------------------------------------------------------ *)
(* Lowering structure.                                                  *)
(* ------------------------------------------------------------------ *)

let test_memoized () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let c1 = Compiled.of_netlist n in
  let c2 = Compiled.of_netlist n in
  Alcotest.(check bool) "same compiled program" true (c1 == c2);
  let c3 = Compiled.compile n in
  Alcotest.(check bool) "compile bypasses the cache" false (c1 == c3)

(* The lowering keeps ids and interface, and marks noisy exactly the
   gates [Gate.is_logic] picks, the ones [Netlist.size] counts: on c17
   and on random netlists of every shape (constants and buffers
   included). *)
let test_structure () =
  let check n =
    let c = Compiled.of_netlist n in
    Alcotest.(check int) "node count" (Netlist.node_count n)
      (Compiled.node_count c);
    Alcotest.(check int) "noisy gates = logic size" (Netlist.size n)
      (Compiled.noisy_count c);
    Alcotest.(check (array int)) "input ids" (Netlist.input_ids n)
      (Compiled.input_ids c);
    Alcotest.(check (array int)) "output ids" (Netlist.output_ids n)
      (Compiled.output_ids c);
    Netlist.iter n (fun id info ->
        let noisy =
          match info.Netlist.kind with
          | Gate.Input | Gate.Const _ | Gate.Buf -> false
          | _ -> true
        in
        Alcotest.(check bool)
          (Printf.sprintf "noisy flag of node %d" id)
          noisy (Compiled.is_noisy c id);
        Alcotest.(check bool)
          (Printf.sprintf "Gate.is_logic of node %d" id)
          noisy
          (Gate.is_logic info.Netlist.kind))
  in
  check (Nano_circuits.Iscas_like.c17 ());
  for seed = 0 to 49 do
    check (Helpers.strash_shapes seed)
  done

(* The evaluator is pinned at every width of the one program, each
   column carrying different words, so a column mix-up cannot pass. *)
let blocked_widths = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Store [columns.(j)] (one word per primary input) as word column [j],
   evaluate the first [Array.length columns] columns in place, and read
   every node back out as one id-indexed array per column. *)
let eval_columns c columns =
  let values = Compiled.create_values_blocked c in
  Array.iteri
    (fun word inputs ->
      Array.iteri
        (fun i id -> Compiled.set_word_blocked c ~values ~id ~word inputs.(i))
        (Compiled.input_ids c))
    columns;
  Compiled.exec_words_blocked c ~width:(Array.length columns) ~values;
  Array.mapi
    (fun word _ ->
      let into = Array.make (Compiled.node_count c) 0L in
      Compiled.blit_values_blocked c ~values ~word ~into;
      into)
    columns

(* Every logic kind at every interesting arity gets its own one-gate
   netlist; each column of the compiled result must equal
   [Gate.eval_word] on that column's random words. This pins each
   opcode of the C evaluator — including the [_n] folds at arities 3
   and 4 and [maj_n] at 5, 7 and 9 — to the reference semantics. *)
let test_each_opcode () =
  let rng = Prng.create ~seed:0xc0de in
  List.iter
    (fun kind ->
      let arities =
        match kind with
        | Gate.Not | Gate.Buf -> [ 1 ]
        | Gate.Majority -> [ 3; 5; 7; 9 ]
        | _ -> [ 2; 3; 4 ]
      in
      List.iter
        (fun arity ->
          let b = Netlist.Builder.create ~name:"one_gate" () in
          let xs =
            List.init arity (fun i ->
                Netlist.Builder.input b (Printf.sprintf "x%d" i))
          in
          Netlist.Builder.output b "y" (Netlist.Builder.add b kind xs);
          let n = Netlist.Builder.finish b in
          let c = Compiled.of_netlist n in
          let out = (Compiled.output_ids c).(0) in
          List.iter
            (fun width ->
              for rep = 1 to 8 do
                (* Sparse words too (one bit in 2, 4 or 8), so the
                   majority counts stay low in every vector. *)
                let word () =
                  let w = ref (Prng.bits64 rng) in
                  for _ = 1 to rep mod 4 do
                    w := Int64.logand !w (Prng.bits64 rng)
                  done;
                  !w
                in
                let columns =
                  Array.init width (fun _ -> Array.init arity (fun _ -> word ()))
                in
                let got = eval_columns c columns in
                Array.iteri
                  (fun j words ->
                    Alcotest.(check int64)
                      (Printf.sprintf "%s/%d width %d column %d"
                         (Gate.name kind) arity width j)
                      (Gate.eval_word kind words)
                      got.(j).(out))
                  columns
              done)
            blocked_widths)
        arities)
    (Gate.Buf :: Gate.all_logic_kinds)

(* The two opcode tables, OCaml's and the C evaluator's, are written
   out separately; they must number every opcode the same way. *)
let test_opcode_numbering () =
  Array.iteri
    (fun i name ->
      Alcotest.(check int) ("C number of " ^ name) i
        (Compiled.kernel_opcode name))
    Compiled.opcode_names;
  Alcotest.(check int) "unknown name" (-1) (Compiled.kernel_opcode "and7")

(* One unit-delay step reads every fanin from [src] and writes [dst],
   inputs copying through; the words past [width] keep their old
   contents. Checked word by word against [Gate.eval_word] on [src]'s
   words, at every width, on a random netlist with wide gates. *)
let test_exec_step_distinct_buffers () =
  let rng = Prng.create ~seed:0x57e9 in
  let n =
    Random_circuit.generate
      ~config:
        {
          Random_circuit.inputs = 6;
          gates = 60;
          outputs = 4;
          allow_majority = true;
          max_fanin = 7;
        }
      ~seed:11 ()
  in
  let c = Compiled.of_netlist n in
  let block = Compiled.block_width c in
  List.iter
    (fun width ->
      let src = Compiled.create_values_blocked c in
      let dst = Compiled.create_values_blocked c in
      for id = 0 to Compiled.node_count c - 1 do
        for word = 0 to block - 1 do
          Compiled.set_word_blocked c ~values:src ~id ~word (Prng.bits64 rng);
          Compiled.set_word_blocked c ~values:dst ~id ~word (Prng.bits64 rng)
        done
      done;
      let before = Bytes.copy dst in
      Compiled.exec_step_blocked c ~width ~src ~dst;
      Netlist.iter n (fun id info ->
          for word = 0 to block - 1 do
            let get values i = Compiled.get_word_blocked c ~values ~id:i ~word in
            let expected =
              if word >= width then get before id
              else
                match info.Netlist.kind with
                | Gate.Input -> get src id
                | kind -> Gate.eval_word kind (Array.map (get src) info.Netlist.fanins)
            in
            Alcotest.(check int64)
              (Printf.sprintf "width %d node %d word %d" width id word)
              expected (get dst id)
          done))
    blocked_widths

(* The popcount counters add each node's ones, or the ones of [a xor b],
   over the first [width] words to what the accumulators already hold. *)
let test_counters () =
  let rng = Prng.create ~seed:0xc0c0 in
  let n = Nano_circuits.Iscas_like.c17 () in
  let c = Compiled.of_netlist n in
  let count = Compiled.node_count c in
  let a = Compiled.create_values_blocked c in
  let b = Compiled.create_values_blocked c in
  for id = 0 to count - 1 do
    for word = 0 to Compiled.block_width c - 1 do
      Compiled.set_word_blocked c ~values:a ~id ~word (Prng.bits64 rng);
      Compiled.set_word_blocked c ~values:b ~id ~word (Prng.bits64 rng)
    done
  done;
  List.iter
    (fun width ->
      let ones = Array.init count (fun id -> 3 * id) in
      let toggles = Array.init count (fun id -> 7 * id) in
      Compiled.add_ones_counts_blocked c ~width ~values:a ~into:ones;
      Compiled.add_toggle_counts_blocked c ~width ~a ~b ~into:toggles;
      for id = 0 to count - 1 do
        let sum f =
          let s = ref 0 in
          for word = 0 to width - 1 do
            s := !s + Nano_util.Bits.popcount64 (f word)
          done;
          !s
        in
        let get values word = Compiled.get_word_blocked c ~values ~id ~word in
        Alcotest.(check int)
          (Printf.sprintf "ones of node %d at width %d" id width)
          ((3 * id) + sum (get a))
          ones.(id);
        Alcotest.(check int)
          (Printf.sprintf "toggles of node %d at width %d" id width)
          ((7 * id) + sum (fun w -> Int64.logxor (get a w) (get b w)))
          toggles.(id)
      done)
    blocked_widths

(* Randomized circuits over the full primitive mix: every lane of every
   column of the compiled evaluation must match the scalar
   single-vector reference. *)
let test_matches_scalar_on_random_circuits () =
  let rng = Prng.create ~seed:0xab1e in
  for seed = 1 to 8 do
    let config =
      {
        Random_circuit.inputs = 6;
        gates = 40;
        outputs = 4;
        allow_majority = true;
        max_fanin = 4;
      }
    in
    let n = Random_circuit.generate ~config ~seed () in
    let n_in = Netlist.input_count n in
    let c = Compiled.of_netlist n in
    List.iter
      (fun width ->
        let columns =
          Array.init width (fun _ -> Array.init n_in (fun _ -> Prng.bits64 rng))
        in
        let got = eval_columns c columns in
        Array.iteri
          (fun j words ->
            for lane = 0 to 63 do
              let bits =
                Array.init n_in (fun i -> Nano_util.Bits.get words.(i) lane)
              in
              let scalar = Netlist.eval_nodes n bits in
              for id = 0 to Netlist.node_count n - 1 do
                if Nano_util.Bits.get got.(j).(id) lane <> scalar.(id) then
                  Alcotest.failf
                    "seed %d width %d column %d: node %d lane %d disagrees \
                     with eval_nodes"
                    seed width j id lane
              done
            done)
          columns)
      blocked_widths
  done

(* ------------------------------------------------------------------ *)
(* Engine equivalence.                                                  *)
(* ------------------------------------------------------------------ *)

let check_results_equal msg (a : Noisy_sim.result) (b : Noisy_sim.result) =
  Alcotest.(check int) (msg ^ ": vectors") a.vectors b.vectors;
  Alcotest.(check (list (pair string (float 0.))))
    (msg ^ ": per-output error") a.per_output_error b.per_output_error;
  Alcotest.(check (float 0.))
    (msg ^ ": any-output error") a.any_output_error b.any_output_error;
  Alcotest.(check (array (float 0.)))
    (msg ^ ": node probability") a.node_probability b.node_probability;
  Alcotest.(check (array (float 0.)))
    (msg ^ ": node activity") a.node_activity b.node_activity;
  Alcotest.(check (float 0.))
    (msg ^ ": average activity") a.average_gate_activity
    b.average_gate_activity

let mapped_rca8 () =
  Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)

(* The compiled engine must reproduce the interpretive engine (which
   shares nothing with it but the PRNG stream) bit-for-bit, for every
   job count — and the coin-flip edge (epsilon = 0.5, still 64 draws
   per gate) and the noiseless edge (epsilon = 0) as well. The last
   three points are the long runs: 2^16 vectors at epsilon 0.01 on c17,
   mapped rca8 and parity16. *)
let test_engines_agree () =
  let rand =
    Random_circuit.generate
      ~config:
        {
          Random_circuit.inputs = 5;
          gates = 30;
          outputs = 3;
          allow_majority = true;
          max_fanin = 4;
        }
      ~seed:42 ()
  in
  let short = (1024, [ 0.0; 0.02; 0.5 ], [ 1; 2; 4 ]) in
  let long = (1 lsl 16, [ 0.01 ], [ 1 ]) in
  List.iter
    (fun (name, n, (vectors, epsilons, job_counts)) ->
      List.iter
        (fun epsilon ->
          let interp =
            Noisy_sim.simulate ~vectors ~engine:`Interp ~epsilon n
          in
          List.iter
            (fun jobs ->
              let compiled =
                Noisy_sim.simulate ~vectors ~jobs ~engine:`Compiled ~epsilon n
              in
              check_results_equal
                (Printf.sprintf "%s v=%d eps %g jobs %d" name vectors epsilon
                   jobs)
                interp compiled)
            job_counts)
        epsilons)
    [
      ("c17", Nano_circuits.Iscas_like.c17 (), short);
      ("rca8", Nano_circuits.Adders.ripple_carry ~width:8, short);
      ("rand", rand, short);
      ("c17", Nano_circuits.Iscas_like.c17 (), long);
      ("mapped rca8", mapped_rca8 (), long);
      ("parity16", Nano_circuits.Trees.parity_tree ~inputs:16 ~fanin:2, long);
    ]

let test_engines_agree_heterogeneous () =
  let n = Nano_circuits.Adders.ripple_carry ~width:4 in
  let epsilon_of id = float_of_int (id mod 3) *. 0.01 in
  let interp =
    Noisy_sim.simulate_heterogeneous ~vectors:512 ~input_probability:0.3
      ~engine:`Interp ~epsilon_of n
  in
  List.iter
    (fun jobs ->
      let compiled =
        Noisy_sim.simulate_heterogeneous ~vectors:512 ~input_probability:0.3
          ~jobs ~engine:`Compiled ~epsilon_of n
      in
      check_results_equal
        (Printf.sprintf "heterogeneous jobs %d" jobs)
        interp compiled)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Blocked engine.                                                      *)
(* ------------------------------------------------------------------ *)

(* [Interp] at [vectors] is the reference for every [jobs] run of the
   blocked engine at the same point. *)
let check_blocked_against_interp ?(input_probability = 0.5) ~vectors ~epsilon
    ~job_counts name n =
  let reference =
    Noisy_sim.simulate ~input_probability ~vectors ~engine:`Interp ~epsilon n
  in
  List.iter
    (fun jobs ->
      let blocked =
        Noisy_sim.simulate ~input_probability ~vectors ~jobs ~engine:`Compiled
          ~epsilon n
      in
      check_results_equal
        (Printf.sprintf "%s p=%g v=%d eps=%g jobs=%d" name input_probability
           vectors epsilon jobs)
        reference blocked)
    job_counts

(* The long-run kernel point on one circuit: [Interp] = blocked at
   4096 vectors, and jobs 4 = jobs 1 at 2^16 vectors, both at epsilon
   0.01. *)
let check_kernel_point ?input_probability (name, n) =
  let epsilon = 0.01 in
  check_blocked_against_interp ?input_probability ~vectors:4096 ~epsilon
    ~job_counts:[ 1 ] name n;
  let run jobs =
    Noisy_sim.simulate ?input_probability ~vectors:(1 lsl 16) ~jobs
      ~engine:`Compiled ~epsilon n
  in
  check_results_equal (name ^ ": jobs 4 = jobs 1 at 2^16 vectors") (run 1)
    (run 4)

let kernel_circuits () =
  [
    ("c17", Nano_circuits.Iscas_like.c17 ());
    ("mapped rca8", mapped_rca8 ());
    ("mapped mult8", Helpers.mapped_suite "mult8");
    ("mapped alu8", Helpers.mapped_suite "alu8");
  ]

(* The blocked engine must reproduce the interpretive engine bit for bit
   across block boundaries — ragged tails (word counts not a multiple
   of the 8-word block) and every job count included. 320 vectors = 5
   words (one ragged block); 1088 vectors = 17 words (two full blocks
   plus a tail of one). The mapped suite circuits then run the long-run
   kernel point. *)
let test_blocked_bit_identity () =
  let circuits =
    [
      ("c17", Nano_circuits.Iscas_like.c17 ());
      ( "rand",
        Random_circuit.generate
          ~config:
            {
              Random_circuit.inputs = 5;
              gates = 30;
              outputs = 3;
              allow_majority = true;
              max_fanin = 4;
            }
          ~seed:77 () );
    ]
  in
  List.iter
    (fun (name, n) ->
      List.iter
        (fun vectors ->
          List.iter
            (fun epsilon ->
              check_blocked_against_interp ~vectors ~epsilon
                ~job_counts:[ 1; 4 ] name n)
            [ 0.02; 0.5 ])
        [ 320; 1088 ])
    circuits;
  List.iter check_kernel_point (kernel_circuits ())

(* Biased stimulus: at input densities 0.1 and 0.9 every input word
   costs 64 draws through the SIMD stub, while [Interp] draws through
   the pure-OCaml [Prng.word_with_density] — so this pins the stub end
   to end. The kernel point at p = 0.1 and 0.9 (p = 0.5 runs above). *)
let test_blocked_biased_stimulus () =
  List.iter
    (fun circuit ->
      List.iter
        (fun input_probability -> check_kernel_point ~input_probability circuit)
        [ 0.1; 0.9 ])
    [
      ("c17", Nano_circuits.Iscas_like.c17 ());
      ("mapped rca8", mapped_rca8 ());
      ("mapped mult8", Helpers.mapped_suite "mult8");
    ]

(* A ~50k-gate levelized netlist is the one gated circuit whose program
   spans dozens of cache segments, so a fault confined to multi-segment
   sweeps only shows here. 1088 vectors = 17 words: two full 8-word
   blocks plus a tail; [Interp] is too slow for much more. *)
let test_blocked_multi_segment () =
  let rand50k =
    Random_circuit.generate
      ~config:
        {
          Random_circuit.inputs = 64;
          gates = 50_000;
          outputs = 32;
          allow_majority = true;
          max_fanin = 3;
        }
      ~seed:0x50c4 ()
  in
  check_blocked_against_interp ~vectors:1088 ~epsilon:0.01 ~job_counts:[ 1; 4 ]
    "rand50k" rand50k

(* Every pack validator must name the offending lane or node. *)
let test_pack_validation_messages () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let c = Compiled.of_netlist n in
  let check name expected f =
    Alcotest.check_raises name (Invalid_argument expected) (fun () ->
        ignore (f ()))
  in
  let bad = (Compiled.output_ids c).(0) in
  check "pack_grid_heterogeneous rejects an empty lane set"
    "Compiled.pack_grid_heterogeneous: need at least one lane" (fun () ->
      Compiled.pack_grid_heterogeneous c [||]);
  check "pack_grid_heterogeneous names the short lane"
    (Printf.sprintf
       "Compiled.pack_grid_heterogeneous: lane 1: expected %d epsilons (one \
        per node), got 3"
       (Compiled.node_count c))
    (fun () ->
      Compiled.pack_grid_heterogeneous c
        [| Array.make (Compiled.node_count c) 0.1; Array.make 3 0.1 |]);
  let rows =
    [|
      Array.make (Compiled.node_count c) 0.1;
      Array.make (Compiled.node_count c) 0.2;
    |]
  in
  rows.(1).(bad) <- 0.75;
  check "pack_grid_heterogeneous names the lane and node"
    (Printf.sprintf
       "Compiled.pack_grid_heterogeneous: lane 1, node %d: epsilon 0.75 must \
        lie in [0, 1/2]"
       bad)
    (fun () -> Compiled.pack_grid_heterogeneous c rows)

(* The ROADMAP invariant carried over to the blocked kernel: once the
   pack and the blocked buffers exist, the fused noisy sweep allocates
   nothing on the minor heap. One lane is the shape every single-point
   simulation runs, through the one-lane dispatch of the C lanes
   kernel. *)
let test_blocked_zero_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let n = Nano_circuits.Adders.ripple_carry ~width:8 in
    let c = Compiled.of_netlist n in
    let rng = Prng.create ~seed:9 in
    let grid =
      Compiled.pack_grid_heterogeneous c
        [| Array.make (Compiled.node_count c) 0.02 |]
    in
    let golden_a = Compiled.create_values_blocked c in
    let golden_b = Compiled.create_values_blocked c in
    let na = [| Compiled.create_values_blocked c |] in
    let nb = [| Compiled.create_values_blocked c |] in
    let count = Compiled.node_count c in
    let ones = [| Array.make count 0 |] in
    let toggles = [| Array.make count 0 |] in
    let out_n = Array.length (Compiled.output_ids c) in
    let out_errors = [| Array.make out_n 0 |] in
    let any = [| 0 |] in
    let loop words =
      Compiled.run_noisy_grid_words c ~grid ~rng ~input_probability:0.3 ~words
        ~need0:false ~golden_a ~golden_b ~na ~nb ~ones0:[||] ~toggles0:[||]
        ~ones ~toggles ~out_errors ~any
    in
    (* Warm-up triggers any one-time lazy initialization. *)
    loop 2;
    let before = Gc.minor_words () in
    loop 64;
    let allocated = Gc.minor_words () -. before in
    if allocated <> 0. then
      Alcotest.failf
        "blocked noisy loop allocated %.0f minor words over 64 words" allocated

let suite =
  [
    Alcotest.test_case "memoized per netlist" `Quick test_memoized;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "each opcode matches Gate.eval_word" `Quick
      test_each_opcode;
    Alcotest.test_case "opcode numbering agrees with C" `Quick
      test_opcode_numbering;
    Alcotest.test_case "exec_step with src <> dst" `Quick
      test_exec_step_distinct_buffers;
    Alcotest.test_case "popcount counters" `Quick test_counters;
    Alcotest.test_case "random circuits match scalar eval" `Quick
      test_matches_scalar_on_random_circuits;
    Alcotest.test_case "engines agree (homogeneous)" `Quick test_engines_agree;
    Alcotest.test_case "engines agree (heterogeneous)" `Quick
      test_engines_agree_heterogeneous;
    Alcotest.test_case "blocked engine bit-identical at jobs 1/4" `Quick
      test_blocked_bit_identity;
    Alcotest.test_case "biased stimulus: blocked = Interp" `Quick
      test_blocked_biased_stimulus;
    Alcotest.test_case "multi-segment rand50k: blocked = Interp" `Slow
      test_blocked_multi_segment;
    Alcotest.test_case "pack validation names lane/node" `Quick
      test_pack_validation_messages;
    Alcotest.test_case "blocked noisy loop allocates nothing" `Quick
      test_blocked_zero_allocation;
  ]
