module Gate = Nano_netlist.Gate

let test_arity () =
  Alcotest.(check bool) "input 0" true (Gate.arity_ok Gate.Input 0);
  Alcotest.(check bool) "input 1" false (Gate.arity_ok Gate.Input 1);
  Alcotest.(check bool) "not 1" true (Gate.arity_ok Gate.Not 1);
  Alcotest.(check bool) "not 2" false (Gate.arity_ok Gate.Not 2);
  Alcotest.(check bool) "and 2" true (Gate.arity_ok Gate.And 2);
  Alcotest.(check bool) "and 1" false (Gate.arity_ok Gate.And 1);
  Alcotest.(check bool) "maj 3" true (Gate.arity_ok Gate.Majority 3);
  Alcotest.(check bool) "maj 4" false (Gate.arity_ok Gate.Majority 4);
  Alcotest.(check bool) "maj 5" true (Gate.arity_ok Gate.Majority 5)

let test_eval () =
  let t = true and f = false in
  Alcotest.(check bool) "and tt" true (Gate.eval Gate.And [| t; t |]);
  Alcotest.(check bool) "and tf" false (Gate.eval Gate.And [| t; f |]);
  Alcotest.(check bool) "nand tf" true (Gate.eval Gate.Nand [| t; f |]);
  Alcotest.(check bool) "or ff" false (Gate.eval Gate.Or [| f; f |]);
  Alcotest.(check bool) "nor ff" true (Gate.eval Gate.Nor [| f; f |]);
  Alcotest.(check bool) "xor ttt" true (Gate.eval Gate.Xor [| t; t; t |]);
  Alcotest.(check bool) "xnor tt" true (Gate.eval Gate.Xnor [| t; t |]);
  Alcotest.(check bool) "not" false (Gate.eval Gate.Not [| t |]);
  Alcotest.(check bool) "buf" true (Gate.eval Gate.Buf [| t |]);
  Alcotest.(check bool) "maj ttf" true (Gate.eval Gate.Majority [| t; t; f |]);
  Alcotest.(check bool) "maj tff" false (Gate.eval Gate.Majority [| t; f; f |]);
  Alcotest.(check bool) "const" true (Gate.eval (Gate.Const true) [||]);
  Helpers.check_invalid "input eval" (fun () -> Gate.eval Gate.Input [||])

let test_eval_word_matches_eval () =
  (* Every logic kind, all input combinations for arities up to 3, every
     lane of the word evaluation must match the scalar evaluation. *)
  let kinds_arities =
    [
      (Gate.Buf, 1); (Gate.Not, 1);
      (Gate.And, 2); (Gate.And, 3);
      (Gate.Or, 2); (Gate.Or, 3);
      (Gate.Nand, 2); (Gate.Nor, 2);
      (Gate.Xor, 2); (Gate.Xor, 3);
      (Gate.Xnor, 2); (Gate.Xnor, 3);
      (Gate.Majority, 3); (Gate.Majority, 5);
    ]
  in
  List.iter
    (fun (kind, arity) ->
      for a = 0 to (1 lsl arity) - 1 do
        let bools = Array.init arity (fun i -> (a lsr i) land 1 = 1) in
        let words = Array.map (fun b -> if b then -1L else 0L) bools in
        let scalar = Gate.eval kind bools in
        let word = Gate.eval_word kind words in
        let expected = if scalar then -1L else 0L in
        if word <> expected then
          Alcotest.failf "%s arity %d assignment %d" (Gate.name kind) arity a
      done)
    kinds_arities

let test_names () =
  let kinds =
    Gate.Input :: Gate.Const true :: Gate.Const false :: Gate.all_logic_kinds
  in
  List.iter
    (fun kind ->
      (match Gate.of_name (Gate.name kind) with
      | Some k -> Alcotest.(check bool) "roundtrip" true (k = kind)
      | None -> Alcotest.failf "no roundtrip for %s" (Gate.name kind));
      Alcotest.(check bool) "code roundtrip" true
        (Gate.of_code (Gate.code kind) = kind))
    kinds;
  Alcotest.(check (list int)) "codes dense"
    (List.init Gate.codes Fun.id)
    (List.sort compare (List.map Gate.code kinds));
  Alcotest.(check bool) "unknown" true (Gate.of_name "zzz" = None)

let test_is_source () =
  Alcotest.(check bool) "input" true (Gate.is_source Gate.Input);
  Alcotest.(check bool) "const" true (Gate.is_source (Gate.Const false));
  Alcotest.(check bool) "and" false (Gate.is_source Gate.And)

let prop_word_lanes_independent =
  QCheck2.Test.make ~name:"word lanes are independent evaluations" ~count:200
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 8))
    (fun (seed, kind_idx) ->
      let kind = List.nth Gate.all_logic_kinds kind_idx in
      let arity =
        match kind with
        | Gate.Buf | Gate.Not -> 1
        | Gate.Majority -> 3
        | _ -> 2
      in
      let rng = Nano_util.Prng.create ~seed in
      let words = Array.init arity (fun _ -> Nano_util.Prng.bits64 rng) in
      let result = Gate.eval_word kind words in
      let ok = ref true in
      for lane = 0 to 63 do
        let bools = Array.map (fun w -> Nano_util.Bits.get w lane) words in
        if Gate.eval kind bools <> Nano_util.Bits.get result lane then
          ok := false
      done;
      !ok)

let test_is_logic () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) (Gate.name kind)
        (not (Gate.is_source kind || kind = Gate.Buf))
        (Gate.is_logic kind))
    (Gate.Input :: Gate.Const false :: Gate.Const true :: Gate.all_logic_kinds)

let suite =
  [
    Alcotest.test_case "arity_ok" `Quick test_arity;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "eval_word matches eval" `Quick test_eval_word_matches_eval;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "is_source" `Quick test_is_source;
    Alcotest.test_case "is_logic" `Quick test_is_logic;
    Helpers.qcheck prop_word_lanes_independent;
  ]
