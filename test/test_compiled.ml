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

let test_structure () =
  let n = Nano_circuits.Iscas_like.c17 () in
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
        noisy (Compiled.is_noisy c id))

(* The evaluator that ships is pinned at two shapes: width 1 of a
   block-1 program, and a ragged width 3 of a block-8 program whose
   columns carry different words, so a column mix-up cannot pass. *)
let blocked_shapes = [ (1, 1); (8, 3) ]

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
   opcode — including the [_n] fallbacks and [maj_n] — to the reference
   semantics. *)
let test_each_opcode () =
  let rng = Prng.create ~seed:0xc0de in
  List.iter
    (fun kind ->
      let arities =
        match kind with
        | Gate.Not | Gate.Buf -> [ 1 ]
        | Gate.Majority -> [ 3; 5 ]
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
          List.iter
            (fun (block, width) ->
              let c = Compiled.of_netlist ~block n in
              let out = (Compiled.output_ids c).(0) in
              for _ = 1 to 16 do
                let columns =
                  Array.init width (fun _ ->
                      Array.init arity (fun _ -> Prng.bits64 rng))
                in
                let got = eval_columns c columns in
                Array.iteri
                  (fun j words ->
                    Alcotest.(check int64)
                      (Printf.sprintf "%s/%d block %d column %d"
                         (Gate.name kind) arity block j)
                      (Gate.eval_word kind words)
                      got.(j).(out))
                  columns
              done)
            blocked_shapes)
        arities)
    (Gate.Buf :: Gate.all_logic_kinds)

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
    List.iter
      (fun (block, width) ->
        let c = Compiled.of_netlist ~block n in
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
                    "seed %d block %d column %d: node %d lane %d disagrees \
                     with eval_nodes"
                    seed block j id lane
              done
            done)
          columns)
      blocked_shapes
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

(* The compiled engine must reproduce the interpretive engine (which
   shares nothing with it but the PRNG stream) bit-for-bit, for every
   job count — and the homogeneous fast path (epsilon = 0.5) and the
   noiseless edge (epsilon = 0) as well. *)
let test_engines_agree () =
  let circuits =
    [
      ("c17", Nano_circuits.Iscas_like.c17 ());
      ("rca8", Nano_circuits.Adders.ripple_carry ~width:8);
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
          ~seed:42 () );
    ]
  in
  List.iter
    (fun (name, n) ->
      List.iter
        (fun epsilon ->
          let interp =
            Noisy_sim.simulate ~vectors:1024 ~engine:`Interp ~epsilon n
          in
          List.iter
            (fun jobs ->
              let compiled =
                Noisy_sim.simulate ~vectors:1024 ~jobs ~engine:`Compiled
                  ~epsilon n
              in
              check_results_equal
                (Printf.sprintf "%s eps %g jobs %d" name epsilon jobs)
                interp compiled)
            [ 1; 2; 4 ])
        [ 0.0; 0.02; 0.5 ])
    circuits

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

(* The blocked engine must reproduce the interpretive engine bit for bit
   at every block width — including width 1, ragged tails (word counts
   not a multiple of the block) and every job count. 320 vectors = 5
   words (ragged at widths 4 and 8); 1088 vectors = 17 words (two full
   8-blocks plus a tail of one). *)
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
              let reference =
                Noisy_sim.simulate ~vectors ~engine:`Interp ~epsilon n
              in
              List.iter
                (fun block ->
                  List.iter
                    (fun jobs ->
                      let blocked =
                        Noisy_sim.simulate ~vectors ~jobs ~engine:`Compiled
                          ~block ~epsilon n
                      in
                      check_results_equal
                        (Printf.sprintf "%s v=%d eps=%g block=%d jobs=%d" name
                           vectors epsilon block jobs)
                        reference blocked)
                    [ 1; 4 ])
                [ 1; 4; 8 ])
            [ 0.02; 0.5 ])
        [ 320; 1088 ])
    circuits

(* The memo is keyed by (netlist, block_width): mixed-width callers get
   distinct cached programs, and the width registry reports every width
   compiled so far. *)
let test_memo_block_width_keyed () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let default = Compiled.default_block_width () in
  let cd = Compiled.of_netlist n in
  let c4 = Compiled.of_netlist ~block:4 n in
  Alcotest.(check bool) "distinct programs per width" false (cd == c4);
  Alcotest.(check int) "default width" default (Compiled.block_width cd);
  Alcotest.(check int) "explicit width" 4 (Compiled.block_width c4);
  Alcotest.(check bool)
    "width-4 entry cached" true
    (c4 == Compiled.of_netlist ~block:4 n);
  Alcotest.(check bool) "default entry cached" true (cd == Compiled.of_netlist n);
  let widths = Compiled.cached_block_widths () in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "width %d registered" w)
        true (List.mem w widths))
    [ 4; default ]

(* Every pack validator must name the offending lane or node. *)
let test_pack_validation_messages () =
  let n = Nano_circuits.Iscas_like.c17 () in
  let c = Compiled.of_netlist n in
  let check name expected f =
    Alcotest.check_raises name (Invalid_argument expected) (fun () ->
        ignore (f ()))
  in
  check "pack_grid names the lane and value"
    "Compiled.pack_grid: lane 1 (every gate): epsilon 0.9 must lie in [0, 1/2]"
    (fun () -> Compiled.pack_grid c [| 0.1; 0.9 |]);
  let eps = Array.make (Compiled.node_count c) 0.01 in
  let bad = (Compiled.output_ids c).(0) in
  eps.(bad) <- 0.6;
  check "pack_noise names the node"
    (Printf.sprintf
       "Compiled.pack_noise: node %d: epsilon must lie in [0, 1/2]" bad)
    (fun () -> Compiled.pack_noise c eps);
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
   nothing on the minor heap. *)
let test_blocked_zero_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let n = Nano_circuits.Adders.ripple_carry ~width:8 in
    let c = Compiled.of_netlist n in
    let rng = Prng.create ~seed:9 in
    let noise =
      Compiled.pack_noise c (Array.make (Compiled.node_count c) 0.02)
    in
    let golden = Compiled.create_values_blocked c in
    let na = Compiled.create_values_blocked c in
    let nb = Compiled.create_values_blocked c in
    let count = Compiled.node_count c in
    let ones = Array.make count 0 in
    let toggles = Array.make count 0 in
    let out_errors = Array.make (Array.length (Compiled.output_ids c)) 0 in
    let any = ref 0 in
    let loop words =
      any :=
        !any
        + Compiled.run_noisy_words c ~noise ~rng ~input_probability:0.3 ~words
            ~golden ~na ~nb ~ones ~toggles ~out_errors
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
    Alcotest.test_case "random circuits match scalar eval" `Quick
      test_matches_scalar_on_random_circuits;
    Alcotest.test_case "engines agree (homogeneous)" `Quick test_engines_agree;
    Alcotest.test_case "engines agree (heterogeneous)" `Quick
      test_engines_agree_heterogeneous;
    Alcotest.test_case "blocked engine bit-identical at widths 1/4/8" `Quick
      test_blocked_bit_identity;
    Alcotest.test_case "memo keyed by (netlist, block width)" `Quick
      test_memo_block_width_keyed;
    Alcotest.test_case "pack validation names lane/node" `Quick
      test_pack_validation_messages;
    Alcotest.test_case "blocked noisy loop allocates nothing" `Quick
      test_blocked_zero_allocation;
  ]
