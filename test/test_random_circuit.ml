module RC = Nano_circuits.Random_circuit
module Netlist = Nano_netlist.Netlist

let test_deterministic () =
  let a = RC.generate ~seed:42 () in
  let b = RC.generate ~seed:42 () in
  Helpers.assert_equivalent "same seed same circuit" a b;
  Alcotest.(check int) "same size" (Netlist.size a) (Netlist.size b)

let test_config_respected () =
  let config =
    {
      RC.inputs = 7;
      gates = 40;
      outputs = 5;
      allow_majority = false;
      max_fanin = 2;
    }
  in
  let n = RC.generate ~config ~seed:1 () in
  Alcotest.(check int) "inputs" 7 (List.length (Netlist.inputs n));
  Alcotest.(check int) "outputs" 5 (List.length (Netlist.outputs n));
  Alcotest.(check bool) "fanin bound" true (Netlist.max_fanin n <= 2);
  (* no majority gates *)
  let has_maj =
    Netlist.fold n ~init:false ~f:(fun acc _ info ->
        acc || info.Netlist.kind = Nano_netlist.Gate.Majority)
  in
  Alcotest.(check bool) "no majority" false has_maj

let test_validation () =
  Helpers.check_invalid "inputs 0" (fun () ->
      ignore
        (RC.generate ~config:{ RC.default_config with RC.inputs = 0 } ~seed:0 ()));
  Helpers.check_invalid "outputs 0" (fun () ->
      ignore
        (RC.generate ~config:{ RC.default_config with RC.outputs = 0 } ~seed:0 ()))

(* Pinned strash digests: the generator's draw stream and node choice
   must not drift, because benchmarks and tests name their netlists by
   (config, seed). Covers the kernel tests' rand50k, two perfbench
   shapes and the default config. *)
let test_pinned_digests () =
  let shape inputs gates outputs =
    { RC.default_config with RC.inputs; gates; outputs }
  in
  List.iter
    (fun (name, config, seed, expected) ->
      Alcotest.(check string) name expected
        (Nano_synth.Strash.digest (RC.generate ~config ~seed ())))
    [
      ( "rand50k",
        {
          RC.inputs = 64;
          gates = 50_000;
          outputs = 32;
          allow_majority = true;
          max_fanin = 3;
        },
        0x50c4,
        "9b9c5f961e7af4663dcb3f809c2a8f38" );
      ("r3000", shape 24 3_000 16, 7, "aebd14f34aa93d55f327188914c9adcc");
      ("r8000", shape 32 8_000 24, 1, "15fd984d95ab15d24f5aabcf5b90e391");
      ("default", RC.default_config, 0, "b505a98e94529384c365dfec33a1a4e7");
    ]

let prop_always_valid =
  QCheck2.Test.make ~name:"generated circuits always validate" ~count:100
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let n = RC.generate ~seed () in
      Netlist.validate n = Ok ())

let prop_zero_gates_ok =
  QCheck2.Test.make ~name:"zero-gate configs work" ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let config = { RC.default_config with RC.gates = 0 } in
      let n = RC.generate ~config ~seed () in
      Netlist.size n = 0 && Netlist.validate n = Ok ())

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "config respected" `Quick test_config_respected;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
    Helpers.qcheck prop_always_valid;
    Helpers.qcheck prop_zero_gates_ok;
  ]
