module Cube = Nano_logic.Cube
module TT = Nano_logic.Truth_table

let test_string_roundtrip () =
  let c = Cube.of_string "1-0" in
  Alcotest.(check string) "roundtrip" "1-0" (Cube.to_string c);
  Alcotest.(check int) "arity" 3 (Cube.arity c);
  Alcotest.(check int) "literals" 2 (Cube.literal_count c)

let test_covers () =
  let c = Cube.of_string "1-0" in
  (* input 0 = '1', input 1 = don't care, input 2 = '0' *)
  Alcotest.(check bool) "covers 001" true (Cube.covers c 0b001);
  Alcotest.(check bool) "covers 011" true (Cube.covers c 0b011);
  Alcotest.(check bool) "not covers 000" false (Cube.covers c 0b000);
  Alcotest.(check bool) "not covers 101" false (Cube.covers c 0b101)

let test_universe_minterm () =
  let u = Cube.universe ~arity:4 in
  Alcotest.(check int) "no literals" 0 (Cube.literal_count u);
  for a = 0 to 15 do
    Alcotest.(check bool) "covers all" true (Cube.covers u a)
  done;
  let m = Cube.of_minterm ~arity:4 0b1010 in
  Alcotest.(check string) "minterm string" "0101" (Cube.to_string m);
  Alcotest.(check bool) "covers itself" true (Cube.covers m 0b1010);
  Alcotest.(check bool) "nothing else" false (Cube.covers m 0b1011)

let test_contains_intersects () =
  let big = Cube.of_string "1--" in
  let small = Cube.of_string "1-0" in
  Alcotest.(check bool) "contains" true (Cube.contains big small);
  Alcotest.(check bool) "not reverse" false (Cube.contains small big);
  let disjoint = Cube.of_string "0--" in
  Alcotest.(check bool) "intersects" true (Cube.intersects big small);
  Alcotest.(check bool) "disjoint" false (Cube.intersects big disjoint)

let test_merge () =
  let a = Cube.of_string "101" in
  let b = Cube.of_string "100" in
  (match Cube.merge_distance1 a b with
  | Some m -> Alcotest.(check string) "merged" "10-" (Cube.to_string m)
  | None -> Alcotest.fail "expected merge");
  (* distance 2: no merge *)
  let c = Cube.of_string "110" in
  Alcotest.(check bool) "no merge dist2" true
    (Cube.merge_distance1 a c = None);
  (* incompatible don't-cares: no merge *)
  let d = Cube.of_string "1-1" in
  Alcotest.(check bool) "no merge dc" true (Cube.merge_distance1 a d = None)

let test_cover_eval () =
  let cover = [ Cube.of_string "11-"; Cube.of_string "--1" ] in
  (* f = (x0 & x1) | x2 *)
  Alcotest.(check bool) "11 0" true (Cube.Cover.eval cover 0b011);
  Alcotest.(check bool) "x2" true (Cube.Cover.eval cover 0b100);
  Alcotest.(check bool) "000" false (Cube.Cover.eval cover 0b000);
  let tt = Cube.Cover.to_truth_table ~arity:3 cover in
  Alcotest.(check int) "ones" 5 (TT.ones tt)

let test_cover_of_table () =
  let maj = Std_functions.majority ~arity:3 in
  let cover = Cube.Cover.of_truth_table maj in
  Alcotest.(check int) "one cube per minterm" 4
    (Cube.Cover.cube_count cover);
  Alcotest.(check bool) "equivalent" true
    (Cube.Cover.equivalent ~arity:3 cover
       (Cube.Cover.of_truth_table maj))

let prop_merge_covers_union =
  QCheck2.Test.make ~name:"merged cube covers exactly the union"
    QCheck2.Gen.(pair (int_range 0 500) (int_range 2 6))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let m1 = Nano_util.Prng.int rng ~bound:(1 lsl arity) in
      let bit = Nano_util.Prng.int rng ~bound:arity in
      let m2 = m1 lxor (1 lsl bit) in
      let a = Cube.of_minterm ~arity m1 in
      let b = Cube.of_minterm ~arity m2 in
      match Cube.merge_distance1 a b with
      | None -> false
      | Some m ->
        let ok = ref true in
        for x = 0 to (1 lsl arity) - 1 do
          let expect = Cube.covers a x || Cube.covers b x in
          if Cube.covers m x <> expect then ok := false
        done;
        !ok)

let suite =
  [
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "covers" `Quick test_covers;
    Alcotest.test_case "universe/minterm" `Quick test_universe_minterm;
    Alcotest.test_case "contains/intersects" `Quick test_contains_intersects;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "cover eval" `Quick test_cover_eval;
    Alcotest.test_case "cover of table" `Quick test_cover_of_table;
    Helpers.qcheck prop_merge_covers_union;
  ]
