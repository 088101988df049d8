module TT = Nano_logic.Truth_table
module Std = Std_functions

let test_const_var () =
  let t = TT.const ~arity:3 true in
  Alcotest.(check int) "all ones" 8 (TT.ones t);
  let f = TT.const ~arity:3 false in
  Alcotest.(check int) "no ones" 0 (TT.ones f);
  let x1 = TT.var ~arity:3 1 in
  Alcotest.(check bool) "x1 at 010" true (TT.eval x1 0b010);
  Alcotest.(check bool) "x1 at 101" false (TT.eval x1 0b101);
  Alcotest.(check int) "half ones" 4 (TT.ones x1)

let test_operators () =
  let open TT in
  let a = var ~arity:2 0 in
  let b = var ~arity:2 1 in
  Alcotest.(check string) "and" "0001" (to_string (a &&& b));
  Alcotest.(check string) "or" "0111" (to_string (a ||| b));
  Alcotest.(check string) "xor" "0110" (to_string (a ^^^ b));
  Alcotest.(check string) "not a" "1010" (to_string (lnot a))

let test_eval_bits () =
  let maj = Std.majority ~arity:3 in
  Alcotest.(check bool) "maj(1,1,0)" true
    (TT.eval_bits maj [| true; true; false |]);
  Alcotest.(check bool) "maj(1,0,0)" false
    (TT.eval_bits maj [| true; false; false |])

let test_probability_activity () =
  let a = TT.var ~arity:4 0 in
  Helpers.check_float "p(var)" 0.5 (TT.signal_probability a);
  Helpers.check_float "sw(var)" 0.5 (TT.switching_activity a);
  let and4 = Std.and_all ~arity:4 in
  Helpers.check_float "p(and4)" (1. /. 16.) (TT.signal_probability and4);
  Helpers.check_float "sw(and4)"
    (2. *. (1. /. 16.) *. (15. /. 16.))
    (TT.switching_activity and4)

let test_cofactor () =
  let a = TT.var ~arity:2 0 in
  let b = TT.var ~arity:2 1 in
  let f = TT.(a &&& b) in
  let f1 = TT.cofactor f ~var:0 true in
  (* f|a=1 should equal b *)
  Alcotest.(check bool) "cofactor = b" true
    (TT.equal f1 (TT.var ~arity:2 1));
  let f0 = TT.cofactor f ~var:0 false in
  Alcotest.(check bool) "cofactor = 0" true
    (TT.equal f0 (TT.const ~arity:2 false))

let test_support () =
  let a = TT.var ~arity:4 0 in
  let c = TT.var ~arity:4 2 in
  let f = TT.(a ^^^ c) in
  Alcotest.(check (list int)) "support" [ 0; 2 ] (TT.support f);
  Alcotest.(check bool) "depends 0" true (TT.depends_on f 0);
  Alcotest.(check bool) "not depends 1" false (TT.depends_on f 1)

let test_sensitivity () =
  Alcotest.(check int) "parity5" 5 (TT.sensitivity (Std.parity ~arity:5));
  Alcotest.(check int) "and3" 3 (TT.sensitivity (Std.and_all ~arity:3));
  Alcotest.(check int) "const" 0 (TT.sensitivity (TT.const ~arity:4 true));
  (* maj3: at (1,1,0) only the two ones are pivotal -> s = 2 *)
  Alcotest.(check int) "maj3" 2 (TT.sensitivity (Std.majority ~arity:3));
  (* average sensitivity of parity is the arity; of AND it is tiny *)
  Helpers.check_float "avg parity4" 4.
    (TT.average_sensitivity (Std.parity ~arity:4));
  Alcotest.(check bool) "avg and4 < 1" true
    (TT.average_sensitivity (Std.and_all ~arity:4) < 1.)

let test_minterms_roundtrip () =
  let f = Std.majority ~arity:3 in
  Alcotest.(check (list int)) "minterms" [ 3; 5; 6; 7 ] (TT.minterms f);
  let s = TT.to_string f in
  Alcotest.(check bool) "roundtrip" true
    (TT.equal f (TT.of_string ~arity:3 s))

let prop_demorgan =
  QCheck2.Test.make ~name:"De Morgan on random tables"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let random_tt () =
        TT.create ~arity (fun _ -> Nano_util.Prng.bool rng)
      in
      let a = random_tt () and b = random_tt () in
      TT.(equal (lnot (a &&& b)) (lnot a ||| lnot b)))

let prop_xor_self =
  QCheck2.Test.make ~name:"f xor f = 0"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity in
      let f = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      TT.(equal (f ^^^ f) (const ~arity:n false)))

let prop_shannon_expansion =
  QCheck2.Test.make ~name:"Shannon expansion reconstructs f"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 5))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let f = TT.create ~arity (fun _ -> Nano_util.Prng.bool rng) in
      let x = TT.var ~arity 0 in
      let f1 = TT.cofactor f ~var:0 true in
      let f0 = TT.cofactor f ~var:0 false in
      TT.(equal f ((x &&& f1) ||| (lnot x &&& f0))))

let suite =
  [
    Alcotest.test_case "const/var" `Quick test_const_var;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "eval_bits" `Quick test_eval_bits;
    Alcotest.test_case "probability/activity" `Quick test_probability_activity;
    Alcotest.test_case "cofactor" `Quick test_cofactor;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "sensitivity" `Quick test_sensitivity;
    Alcotest.test_case "minterms/roundtrip" `Quick test_minterms_roundtrip;
    Helpers.qcheck prop_demorgan;
    Helpers.qcheck prop_xor_self;
    Helpers.qcheck prop_shannon_expansion;
  ]
