module Sensitivity = Nano_sim.Sensitivity
module Trees = Nano_circuits.Trees

let test_parity_full_sensitivity () =
  let n = Trees.parity_tree ~inputs:8 ~fanin:2 in
  Alcotest.(check (option int)) "exact" (Some 8) (Sensitivity.exact n);
  Alcotest.(check int) "sampled" 8 (Sensitivity.sampled ~samples:16 n)

let test_and_tree () =
  let n = Trees.and_tree ~inputs:6 ~fanin:3 in
  (* AND: sensitivity 6 at the all-ones assignment. *)
  Alcotest.(check (option int)) "exact" (Some 6) (Sensitivity.exact n)

let test_at_assignment () =
  let n = Trees.and_tree ~inputs:4 ~fanin:2 in
  Alcotest.(check int) "all ones" 4
    (Sensitivity.at_assignment n [| true; true; true; true |]);
  (* At all-zeros no single flip changes AND. *)
  Alcotest.(check int) "all zeros" 0
    (Sensitivity.at_assignment n [| false; false; false; false |]);
  (* At exactly one zero, only that zero is pivotal. *)
  Alcotest.(check int) "one zero" 1
    (Sensitivity.at_assignment n [| true; false; true; true |])

let test_exact_limit () =
  let n = Trees.parity_tree ~inputs:14 ~fanin:2 in
  Alcotest.(check (option int)) "too wide" None
    (Sensitivity.exact ~max_inputs:12 n);
  Alcotest.(check int) "estimate falls back to sampling" 14
    (Sensitivity.estimate ~samples:8 n)

let test_multi_output () =
  (* Corollary 1 convention: a flip counts when any output changes; for
     a ripple adder every input flip changes some sum bit. *)
  let n = Nano_circuits.Adders.ripple_carry ~width:4 in
  Alcotest.(check int) "adder sensitivity = inputs" 9
    (Sensitivity.estimate n)

let test_wide_inputs_chunking () =
  (* More than 63 inputs exercises the multi-chunk path. *)
  let n = Trees.parity_tree ~inputs:100 ~fanin:3 in
  Alcotest.(check int) "parity-100" 100 (Sensitivity.sampled ~samples:4 n)

let test_jobs_deterministic () =
  (* Parallel partitioning must not change any estimate: exhaustive
     search partitions the assignment space, sampling replays segments
     of the sequential seed stream. Golden values recorded from the
     pre-parallel implementation (default seed, 256 samples). *)
  let check name expected =
    let entry = Option.get (Nano_circuits.Suite.find name) in
    let circuit = entry.Nano_circuits.Suite.build () in
    List.iter
      (fun jobs ->
        Alcotest.(check int)
          (Printf.sprintf "%s jobs=%d" name jobs)
          expected
          (Sensitivity.estimate ~samples:256 ~jobs circuit))
      [ 1; 2; 4 ]
  in
  check "c17" 4;
  check "rca8" 17;
  check "parity16" 16

let test_jobs_exact_partition () =
  let n = Trees.parity_tree ~inputs:8 ~fanin:2 in
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "exact jobs=%d" jobs)
        (Some 8)
        (Sensitivity.exact ~jobs n))
    [ 1; 2; 4; 7 ]

let prop_sampled_le_exact =
  QCheck2.Test.make ~name:"sampled sensitivity never exceeds exact" ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:5 ~gates:15 () in
      match Sensitivity.exact n with
      | None -> false
      | Some exact -> Sensitivity.sampled ~samples:64 n <= exact)

let prop_at_assignment_brute_force =
  QCheck2.Test.make ~name:"at_assignment matches brute force" ~count:50
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 31))
    (fun (seed, assignment) ->
      let netlist = Helpers.random_netlist ~seed ~inputs:5 ~gates:12 () in
      let bits = Array.init 5 (fun i -> (assignment lsr i) land 1 = 1) in
      let outputs bits =
        List.map
          (fun (_, node) -> (Nano_netlist.Netlist.eval_nodes netlist bits).(node))
          (Nano_netlist.Netlist.outputs netlist)
      in
      let base = outputs bits in
      let brute = ref 0 in
      for i = 0 to 4 do
        bits.(i) <- not bits.(i);
        if outputs bits <> base then incr brute;
        bits.(i) <- not bits.(i)
      done;
      Sensitivity.at_assignment netlist bits = !brute)

(* ------------------------------------------------------------------ *)
(* The structural ceiling: stopping early never changes a value.        *)
(* ------------------------------------------------------------------ *)

module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Prng = Nano_util.Prng

(* A suite circuit with one more primary input that feeds nothing, the
   way the explore benchmark makes a suite circuit new to every cache:
   the name goes at the end of the [.inputs] declaration. *)
let padded name =
  let lines =
    String.split_on_char '\n'
      (Nano_blif.Blif.to_string (Helpers.suite_circuit name))
  in
  let rec pad = function
    | l :: (o :: _ as rest) when String.starts_with ~prefix:".outputs" o ->
      (l ^ " pad") :: rest
    | l :: rest -> l :: pad rest
    | [] -> []
  in
  match Nano_blif.Blif.parse_string (String.concat "\n" (pad lines)) with
  | Ok n -> n
  | Error _ -> Alcotest.failf "padded %s does not parse" name

let random_shaped ~seed ~inputs ~gates ~outputs =
  Nano_circuits.Random_circuit.generate
    ~config:
      { Nano_circuits.Random_circuit.default_config with inputs; gates; outputs }
    ~seed ()

(* Values of [Sensitivity.estimate] on mapped circuits, recorded from the
   implementation before the ceiling existed (default seed and samples):
   padded suite circuits, where the support is one short of the input
   count; random netlists of the explore benchmark's four shapes; and
   named suite circuits. Each must hold at every job count. *)
let test_pinned_estimates () =
  let cases =
    List.map (fun (name, s) -> ("padded " ^ name, (fun () -> padded name), s))
      [ ("c17", 4); ("rca8", 17); ("parity16", 16); ("alu8", 20);
        ("datapath32", 65) ]
    @ List.map
        (fun ((seed, inputs, gates, outputs), s) ->
          ( Printf.sprintf "random %d/%d/%d" inputs gates outputs,
            (fun () -> random_shaped ~seed ~inputs ~gates ~outputs),
            s ))
        [ ((1, 12, 100, 4), 7); ((2, 16, 1600, 12), 16);
          ((3, 24, 3000, 16), 23); ((4, 32, 8000, 24), 32) ]
    @ List.map (fun (name, s) -> (name, (fun () -> Helpers.suite_circuit name), s))
        [ ("c17", 4); ("rca8", 17); ("parity16", 16); ("alu8", 20);
          ("mult8", 16); ("mult16", 32) ]
  in
  List.iter
    (fun (label, build, expected) ->
      let mapped = Nano_synth.Script.rugged_lite ~max_fanin:3 (build ()) in
      List.iter
        (fun jobs ->
          Alcotest.(check int)
            (Printf.sprintf "%s jobs=%d" label jobs)
            expected
            (Sensitivity.estimate ~jobs mapped))
        [ 1; 2; 4 ])
    cases

(* The definitions, with no early stop: every assignment when the
   exhaustive path applies (at most 12 inputs), else the maximum over
   the sampled path's 2048 assignments, drawn as it draws them. *)
let reference netlist =
  let n = Netlist.input_count netlist in
  let bits = Array.make n false in
  let best = ref 0 in
  let visit () = best := max !best (Sensitivity.at_assignment netlist bits) in
  if n <= 12 then
    for a = 0 to (1 lsl n) - 1 do
      Array.iteri (fun i _ -> bits.(i) <- (a lsr i) land 1 = 1) bits;
      visit ()
    done
  else begin
    let rng = Prng.create ~seed:0x5e15 in
    for _ = 1 to 2048 do
      Array.iteri (fun i _ -> bits.(i) <- Prng.bool rng) bits;
      visit ()
    done
  end;
  !best

(* A random netlist over [used] inputs with [unused] more declared at
   seeded positions and never read; with [constant] every output is a
   constant instead, so no input reaches an output (support 0). *)
let netlist_with_unused ~seed ~used ~unused ~gates ~constant =
  let rng = Prng.create ~seed in
  let b = Netlist.Builder.create ~name:"unused" () in
  let total = used + unused in
  let skip = Array.make total false in
  let marked = ref 0 in
  while !marked < unused do
    let i = Prng.int rng ~bound:total in
    if not skip.(i) then begin
      skip.(i) <- true;
      incr marked
    end
  done;
  let nodes = ref [] in
  for i = 0 to total - 1 do
    let x = Netlist.Builder.input b (Printf.sprintf "x%d" i) in
    if not skip.(i) then nodes := x :: !nodes
  done;
  let pick () =
    let arr = Array.of_list !nodes in
    arr.(Prng.int rng ~bound:(Array.length arr))
  in
  for _ = 1 to gates do
    let kind, arity =
      match Prng.int rng ~bound:6 with
      | 0 -> (Gate.Not, 1)
      | 1 -> (Gate.And, 2)
      | 2 -> (Gate.Or, 2)
      | 3 -> (Gate.Xor, 2)
      | 4 -> (Gate.Nand, 3)
      | _ -> (Gate.Majority, 3)
    in
    nodes := Netlist.Builder.add b kind (List.init arity (fun _ -> pick ())) :: !nodes
  done;
  if constant then begin
    Netlist.Builder.output b "f0" (Netlist.Builder.const b false);
    Netlist.Builder.output b "f1" (Netlist.Builder.const b true)
  end
  else begin
    Netlist.Builder.output b "f0" (List.hd !nodes);
    Netlist.Builder.output b "f1" (pick ())
  end;
  Netlist.Builder.finish b

let prop_estimate_matches_reference =
  QCheck2.Test.make
    ~name:"estimate = the uncapped definition, unused inputs included"
    ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let netlist =
        netlist_with_unused ~seed
          ~used:(1 + Prng.int rng ~bound:15)
          ~unused:(Prng.int rng ~bound:4)
          ~gates:(Prng.int rng ~bound:25)
          ~constant:(Prng.int rng ~bound:6 = 0)
      in
      let expected = reference netlist in
      List.for_all
        (fun jobs -> Sensitivity.estimate ~jobs netlist = expected)
        [ 1; 2; 3; 4 ])

(* Sensitivity at one assignment by the definition: evaluate the
   netlist once per single-input flip, with no compiled program. *)
let brute_at netlist bits =
  let outputs () =
    let v = Netlist.eval_nodes netlist bits in
    List.map (fun (_, node) -> v.(node)) (Netlist.outputs netlist)
  in
  let base = outputs () in
  let count = ref 0 in
  Array.iteri
    (fun i b ->
      bits.(i) <- not b;
      if outputs () <> base then incr count;
      bits.(i) <- b)
    bits;
  !count

(* The sweep layout's edges: up to 62 inputs (one chunk, many
   assignments a sweep), 64-130 (two or three chunks, so several
   chunks share a sweep and an assignment may straddle two), and more
   than 504 (over eight chunks, so one assignment spans sweeps); sample
   counts that fill no whole sweep; and 1-4 jobs, whose shards are
   ragged. [sampled] must equal the maximum of [brute_at] over the
   samples it draws, [n] coin flips each in sample order, and
   [at_assignment] must equal [brute_at] on the first sample. *)
let prop_sampled_wide_matches_brute_force =
  QCheck2.Test.make ~name:"sampled = brute force across sweep layouts"
    ~count:18
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let used =
        match seed mod 3 with
        | 0 -> 1 + Prng.int rng ~bound:62
        | 1 -> 64 + Prng.int rng ~bound:67
        | _ -> 505 + Prng.int rng ~bound:26
      in
      let netlist =
        netlist_with_unused ~seed ~used
          ~unused:(Prng.int rng ~bound:4)
          ~gates:(used / 2 + Prng.int rng ~bound:40)
          ~constant:false
      in
      let samples = 1 + Prng.int rng ~bound:12 in
      let n = Netlist.input_count netlist in
      let draws = Prng.create ~seed:0x5e15 in
      let first = Array.init n (fun _ -> Prng.bool draws) in
      let expected = ref (brute_at netlist (Array.copy first)) in
      for _ = 2 to samples do
        let bits = Array.init n (fun _ -> Prng.bool draws) in
        expected := max !expected (brute_at netlist bits)
      done;
      Sensitivity.at_assignment netlist first = brute_at netlist first
      && List.for_all
           (fun jobs -> Sensitivity.sampled ~samples ~jobs netlist = !expected)
           [ 1; 2; 3; 4 ])

let test_constant_outputs () =
  List.iter
    (fun used ->
      let n =
        netlist_with_unused ~seed:used ~used ~unused:2 ~gates:8 ~constant:true
      in
      List.iter
        (fun jobs ->
          Alcotest.(check int)
            (Printf.sprintf "%d inputs, jobs=%d" (used + 2) jobs)
            0
            (Sensitivity.estimate ~jobs n))
        [ 1; 2; 4 ])
    [ 3; 14 ]

let suite =
  [
    Alcotest.test_case "parity full sensitivity" `Quick
      test_parity_full_sensitivity;
    Alcotest.test_case "and tree" `Quick test_and_tree;
    Alcotest.test_case "at_assignment" `Quick test_at_assignment;
    Alcotest.test_case "exact limit" `Quick test_exact_limit;
    Alcotest.test_case "multi output" `Quick test_multi_output;
    Alcotest.test_case "wide inputs chunking" `Quick test_wide_inputs_chunking;
    Alcotest.test_case "jobs deterministic" `Quick test_jobs_deterministic;
    Alcotest.test_case "jobs exact partition" `Quick test_jobs_exact_partition;
    Helpers.qcheck prop_sampled_le_exact;
    Helpers.qcheck prop_at_assignment_brute_force;
    Alcotest.test_case "pinned estimates" `Quick test_pinned_estimates;
    Alcotest.test_case "constant outputs" `Quick test_constant_outputs;
    Helpers.qcheck prop_estimate_matches_reference;
    Helpers.qcheck prop_sampled_wide_matches_brute_force;
  ]
