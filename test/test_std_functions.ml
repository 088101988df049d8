module Std = Std_functions
module TT = Nano_logic.Truth_table

let test_parity () =
  let p = Std.parity ~arity:4 in
  Alcotest.(check bool) "0000" false (TT.eval p 0);
  Alcotest.(check bool) "0001" true (TT.eval p 1);
  Alcotest.(check bool) "0011" false (TT.eval p 3);
  Alcotest.(check bool) "1111" false (TT.eval p 15);
  Alcotest.(check bool) "0111" true (TT.eval p 7);
  Alcotest.(check int) "balanced" 8 (TT.ones p)

let test_majority () =
  let m = Std.majority ~arity:5 in
  Alcotest.(check bool) "2 of 5" false (TT.eval m 0b00011);
  Alcotest.(check bool) "3 of 5" true (TT.eval m 0b00111);
  Alcotest.(check int) "self-dual balance" 16 (TT.ones m)

let test_and_or () =
  Alcotest.(check int) "and ones" 1 (TT.ones (Std.and_all ~arity:5));
  Alcotest.(check int) "or ones" 31 (TT.ones (Std.or_all ~arity:5))

let test_mux () =
  let m = Std.mux ~select_bits:2 in
  (* inputs: sel0 sel1 d0 d1 d2 d3; selecting d_k *)
  Alcotest.(check int) "arity" 6 (TT.arity m);
  (* sel = 2 (sel0=0, sel1=1), d2 = 1 => output 1 *)
  let a = 0b010000 lor 0b10 in
  Alcotest.(check bool) "select d2" true (TT.eval m a);
  (* sel = 2, d2 = 0, all other d = 1 => output 0 *)
  let a = 0b101100 lor 0b10 in
  Alcotest.(check bool) "d2 low" false (TT.eval m a)

let test_adder_bits () =
  let width = 3 in
  let sum_ok = ref true in
  for x = 0 to 7 do
    for y = 0 to 7 do
      let assignment = x lor (y lsl width) in
      for bit = 0 to width - 1 do
        let expected = ((x + y) lsr bit) land 1 = 1 in
        let f = Std.adder_sum_bit ~width ~bit in
        if TT.eval f assignment <> expected then sum_ok := false
      done;
      let cout = Std.adder_carry_out ~width in
      if TT.eval cout assignment <> (x + y >= 8) then sum_ok := false
    done
  done;
  Alcotest.(check bool) "adder truth tables correct" true !sum_ok

let test_comparator () =
  let width = 3 in
  let f = Std.comparator_greater ~width in
  let ok = ref true in
  for x = 0 to 7 do
    for y = 0 to 7 do
      let assignment = x lor (y lsl width) in
      if TT.eval f assignment <> (x > y) then ok := false
    done
  done;
  Alcotest.(check bool) "comparator correct" true !ok

let test_threshold () =
  let t = Std.threshold ~arity:4 ~k:2 in
  Alcotest.(check bool) "one bit" false (TT.eval t 0b0001);
  Alcotest.(check bool) "two bits" true (TT.eval t 0b0101);
  Alcotest.(check bool) "k=0 tautology" true
    (TT.equal (Std.threshold ~arity:3 ~k:0) (TT.const ~arity:3 true))

let prop_parity_sensitivity =
  QCheck2.Test.make ~name:"parity has full sensitivity"
    QCheck2.Gen.(int_range 1 8)
    (fun n -> TT.sensitivity (Std.parity ~arity:n) = n)

let prop_majority_selfdual =
  QCheck2.Test.make ~name:"majority is self-dual"
    QCheck2.Gen.(int_range 1 3)
    (fun k ->
      let n = (2 * k) + 1 in
      let m = Std.majority ~arity:n in
      (* maj(~x) = ~maj(x) *)
      let ok = ref true in
      for a = 0 to (1 lsl n) - 1 do
        let complement = a lxor ((1 lsl n) - 1) in
        if TT.eval m complement <> not (TT.eval m a) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "parity" `Quick test_parity;
    Alcotest.test_case "majority" `Quick test_majority;
    Alcotest.test_case "and/or" `Quick test_and_or;
    Alcotest.test_case "mux" `Quick test_mux;
    Alcotest.test_case "adder bits" `Quick test_adder_bits;
    Alcotest.test_case "comparator" `Quick test_comparator;
    Alcotest.test_case "threshold" `Quick test_threshold;
    Helpers.qcheck prop_parity_sensitivity;
    Helpers.qcheck prop_majority_selfdual;
  ]
