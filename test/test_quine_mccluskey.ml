module QM = Nano_synth.Quine_mccluskey
module Cube = Nano_logic.Cube
module TT = Nano_logic.Truth_table
module Std = Std_functions

let cover_equals_table ~arity cover tt =
  TT.equal (Cube.Cover.to_truth_table ~arity cover) tt

let test_textbook_example () =
  (* Classic example: f = Σm(0, 1, 2, 5, 6, 7) over 3 vars minimizes to
     4 cubes... actually to 3: ~x2~x1, x1~x0? Use correctness checks
     instead of pinning a particular shape. *)
  let on_set = [ 0; 1; 2; 5; 6; 7 ] in
  let cover = QM.minimize ~arity:3 ~on_set ~dc_set:[] in
  let tt = TT.create ~arity:3 (fun a -> List.mem a on_set) in
  Alcotest.(check bool) "covers exactly" true (cover_equals_table ~arity:3 cover tt);
  Alcotest.(check bool) "minimized below minterm count" true
    (Cube.Cover.cube_count cover < 6)

let test_prime_implicants_xor () =
  (* XOR has no mergeable minterm pairs: primes = minterms. *)
  let primes = QM.prime_implicants ~arity:2 ~on_set:[ 1; 2 ] ~dc_set:[] in
  Alcotest.(check int) "two primes" 2 (List.length primes);
  List.iter
    (fun p -> Alcotest.(check int) "full literals" 2 (Cube.literal_count p))
    primes

let test_full_cover_collapses () =
  (* Tautology: all 2^n minterms merge into the universal cube. *)
  let on_set = List.init 16 (fun i -> i) in
  let cover = QM.minimize ~arity:4 ~on_set ~dc_set:[] in
  Alcotest.(check int) "single cube" 1 (Cube.Cover.cube_count cover);
  Alcotest.(check int) "no literals" 0 (Cube.Cover.literal_count cover)

let test_dont_cares_help () =
  (* f on {1}, dc on {3}: with the dc the cover is x0 (one literal);
     without it, x0 & ~x1 (two literals). *)
  let with_dc = QM.minimize ~arity:2 ~on_set:[ 1 ] ~dc_set:[ 3 ] in
  let without = QM.minimize ~arity:2 ~on_set:[ 1 ] ~dc_set:[] in
  Alcotest.(check int) "with dc: 1 literal" 1
    (Cube.Cover.literal_count with_dc);
  Alcotest.(check int) "without dc: 2 literals" 2
    (Cube.Cover.literal_count without);
  (* the dc cover must still never cover OFF minterms (0 and 2) *)
  Alcotest.(check bool) "off 0" false (Cube.Cover.eval with_dc 0);
  Alcotest.(check bool) "off 2" false (Cube.Cover.eval with_dc 2)

let test_empty_function () =
  Alcotest.(check int) "empty cover" 0
    (Cube.Cover.cube_count (QM.minimize ~arity:3 ~on_set:[] ~dc_set:[ 1 ]))

let test_majority_cover () =
  let tt = Std.majority ~arity:3 in
  let cover = QM.minimize_table tt in
  Alcotest.(check bool) "correct" true (cover_equals_table ~arity:3 cover tt);
  (* maj3 = three 2-literal cubes *)
  Alcotest.(check int) "three cubes" 3 (Cube.Cover.cube_count cover);
  Alcotest.(check int) "six literals" 6 (Cube.Cover.literal_count cover)

let test_cover_cost () =
  let cubes, literals =
    QM.cover_cost [ Cube.of_string "1-0"; Cube.of_string "--1" ]
  in
  Alcotest.(check int) "cubes" 2 cubes;
  Alcotest.(check int) "literals" 3 literals

let prop_minimize_correct =
  QCheck2.Test.make ~name:"QM cover equals original function" ~count:80
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 6))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      cover_equals_table ~arity:n (QM.minimize_table tt) tt)

let prop_all_primes =
  QCheck2.Test.make ~name:"chosen cubes are prime implicants" ~count:40
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let on_set = TT.minterms tt in
      let primes = QM.prime_implicants ~arity:n ~on_set ~dc_set:[] in
      let cover = QM.minimize ~arity:n ~on_set ~dc_set:[] in
      List.for_all (fun c -> List.exists (Cube.equal c) primes) cover)

let prop_never_covers_offset =
  QCheck2.Test.make ~name:"cover avoids the OFF-set even with dc" ~count:60
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let size = 1 lsl n in
      (* three-valued random function: on / off / dc *)
      let kind = Array.init size (fun _ -> Nano_util.Prng.int rng ~bound:3) in
      let collect v =
        Array.to_list kind
        |> List.mapi (fun i k -> (i, k))
        |> List.filter (fun (_, k) -> k = v)
        |> List.map fst
      in
      let on_set = collect 0 and dc_set = collect 1 in
      let cover = QM.minimize ~arity:n ~on_set ~dc_set in
      List.for_all (fun m -> Cube.Cover.eval cover m) on_set
      && List.for_all (fun m -> not (Cube.Cover.eval cover m)) (collect 2))

(* The hashed partner lookup against the pair-comparing oracle it
   replaced (quine_mccluskey_ref.ml): the same primes in the same order,
   so the same covers, on random three-valued functions of up to 8
   inputs (dense and sparse ON-sets, with and without don't-cares). *)
let prop_matches_reference =
  QCheck2.Test.make ~name:"primes and covers equal the reference" ~count:120
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 0 8) (int_range 0 3))
    (fun (seed, n, density) ->
      let rng = Nano_util.Prng.create ~seed in
      let on_set = ref [] and dc_set = ref [] in
      for m = (1 lsl n) - 1 downto 0 do
        match Nano_util.Prng.int rng ~bound:(4 + density) with
        | 0 | 1 -> on_set := m :: !on_set
        | 2 -> dc_set := m :: !dc_set
        | _ -> ()
      done;
      let on_set = !on_set and dc_set = !dc_set in
      List.equal Cube.equal
        (QM.prime_implicants ~arity:n ~on_set ~dc_set)
        (Quine_mccluskey_ref.prime_implicants ~arity:n ~on_set ~dc_set)
      && List.equal Cube.equal
           (QM.minimize ~arity:n ~on_set ~dc_set)
           (Quine_mccluskey_ref.minimize ~arity:n ~on_set ~dc_set))

(* rugged_lite's two-level collapse near its 10-input limit: a 100-gate
   random netlist whose collapse took the pair-comparing rounds about
   25 s. The digest was recorded with that implementation. *)
let test_ten_input_mapping_pinned () =
  let n =
    Nano_circuits.Random_circuit.generate
      ~config:
        {
          Nano_circuits.Random_circuit.default_config with
          inputs = 10;
          gates = 100;
        }
      ~seed:26 ()
  in
  Alcotest.(check string) "mapping digest" "b48bc8eae9114c5532d287ed347218de"
    (Nano_netlist.Netlist.digest (Nano_synth.Script.rugged_lite n))

let suite =
  [
    Alcotest.test_case "textbook example" `Quick test_textbook_example;
    Alcotest.test_case "xor primes" `Quick test_prime_implicants_xor;
    Alcotest.test_case "tautology collapses" `Quick test_full_cover_collapses;
    Alcotest.test_case "don't cares help" `Quick test_dont_cares_help;
    Alcotest.test_case "empty function" `Quick test_empty_function;
    Alcotest.test_case "majority cover" `Quick test_majority_cover;
    Alcotest.test_case "cover cost" `Quick test_cover_cost;
    Helpers.qcheck prop_minimize_correct;
    Helpers.qcheck prop_all_primes;
    Helpers.qcheck prop_never_covers_offset;
    Helpers.qcheck prop_matches_reference;
    Alcotest.test_case "10-input random mapping pinned" `Quick
      test_ten_input_mapping_pinned;
  ]
