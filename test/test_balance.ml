module Balance = Nano_synth.Balance
module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

(* A deliberately skewed chain: (((x0 op x1) op x2) op x3) ... *)
let chain kind n_inputs =
  let b = B.create () in
  let xs = List.init n_inputs (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let root =
    match xs with
    | first :: rest ->
      List.fold_left (fun acc x -> B.add b kind [ acc; x ]) first rest
    | [] -> assert false
  in
  B.output b "y" root;
  B.finish b

let test_chain_becomes_logarithmic () =
  List.iter
    (fun kind ->
      let skewed = chain kind 16 in
      Alcotest.(check int) "chain depth" 15 (Netlist.depth skewed);
      let balanced = Balance.run skewed in
      Alcotest.(check int)
        (Gate.name kind ^ " balanced depth")
        4
        (Netlist.depth balanced);
      Alcotest.(check int)
        (Gate.name kind ^ " same gate count")
        15
        (Netlist.size balanced);
      Helpers.assert_equivalent (Gate.name kind) skewed balanced)
    [ Gate.And; Gate.Or; Gate.Xor ]

let test_respects_fanout () =
  (* An intermediate result with external fanout must not be inlined. *)
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let z = B.input b "z" in
  let inner = B.and2 b x y in
  let outer = B.and2 b inner z in
  B.output b "inner" inner;
  B.output b "outer" outer;
  let n = B.finish b in
  let balanced = Balance.run n in
  Helpers.assert_equivalent "fanout preserved" n balanced;
  (* inner must still be computed once and shared *)
  Alcotest.(check int) "no duplication" 2 (Netlist.size balanced)

let test_arrival_time_aware () =
  (* Operand c arrives late (behind a chain); the balancer must pair the
     early operands first so the late one lands near the root:
     depth((a&b)&c_late) = late+1, not late+2. *)
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let c0 = B.input b "c" in
  (* delay c by four inverters *)
  let rec delay node k = if k = 0 then node else delay (B.not_ b node) (k - 1) in
  let c_late = delay c0 4 in
  let t1 = B.and2 b a bb in
  let t2 = B.and2 b t1 c_late in
  B.output b "y" t2;
  let n = B.finish b in
  let balanced = Balance.run n in
  Helpers.assert_equivalent "same function" n balanced;
  Alcotest.(check int) "late operand at the root" 5 (Netlist.depth balanced)

let test_mixed_kinds_not_flattened () =
  (* and(or(x,y), z): different kinds must not merge. *)
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let z = B.input b "z" in
  B.output b "f" (B.and2 b (B.or2 b x y) z);
  let n = B.finish b in
  let balanced = Balance.run n in
  Helpers.assert_equivalent "mixed kinds" n balanced;
  Alcotest.(check int) "two gates" 2 (Netlist.size balanced)

let test_suite_depth_never_increases () =
  List.iter
    (fun entry ->
      let original = entry.Nano_circuits.Suite.build () in
      let balanced = Balance.run original in
      if Netlist.depth balanced > Netlist.depth original then
        Alcotest.failf "%s: depth %d -> %d" entry.Nano_circuits.Suite.name
          (Netlist.depth original) (Netlist.depth balanced))
    (List.filter
       (fun e -> not (List.mem e.Nano_circuits.Suite.name [ "mult16" ]))
       Nano_circuits.Suite.all)

let prop_equivalence_and_depth =
  QCheck2.Test.make ~name:"balance preserves function, never deepens"
    ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:5 ~gates:25 () in
      let balanced = Balance.run n in
      Netlist.depth balanced <= Netlist.depth n
      &&
      match Nano_synth.Equiv.check n balanced with
      | Nano_synth.Equiv.Equivalent -> true
      | Nano_synth.Equiv.Counterexample _ -> false)

(* Skipping the chains a parent inlines must not move a node: the
   result equals the pre-rewrite pass (balance_ref.ml), node order
   included, on random netlists, Random_circuit netlists and the whole
   suite. *)
let check_against_reference label n =
  Alcotest.(check string) label
    (Netlist.digest (Balance_ref.run n))
    (Netlist.digest (Balance.run n))

let prop_matches_reference =
  QCheck2.Test.make ~name:"balance equals the reference pass" ~count:80
    QCheck2.Gen.(pair (int_range 0 100000) bool)
    (fun (seed, generated) ->
      let n =
        if generated then
          Nano_circuits.Random_circuit.generate
            ~config:
              {
                Nano_circuits.Random_circuit.default_config with
                inputs = 8;
                gates = 120;
                outputs = 4;
              }
            ~seed ()
        else Helpers.random_netlist ~seed ~inputs:5 ~gates:40 ()
      in
      Netlist.digest (Balance.run n) = Netlist.digest (Balance_ref.run n))

let test_suite_matches_reference () =
  check_against_reference "16-input AND chain" (chain Gate.And 16);
  List.iter
    (fun entry ->
      check_against_reference entry.Nano_circuits.Suite.name
        (entry.Nano_circuits.Suite.build ()))
    Nano_circuits.Suite.all

let suite =
  [
    Alcotest.test_case "chains become logarithmic" `Quick
      test_chain_becomes_logarithmic;
    Alcotest.test_case "respects fanout" `Quick test_respects_fanout;
    Alcotest.test_case "arrival-time aware" `Quick test_arrival_time_aware;
    Alcotest.test_case "mixed kinds" `Quick test_mixed_kinds_not_flattened;
    Alcotest.test_case "suite depth never increases" `Quick
      test_suite_depth_never_increases;
    Helpers.qcheck prop_equivalence_and_depth;
    Helpers.qcheck prop_matches_reference;
    Alcotest.test_case "suite equals the reference pass" `Quick
      test_suite_matches_reference;
  ]
