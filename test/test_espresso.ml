module Espresso = Nano_synth.Espresso_lite
module QM = Nano_synth.Quine_mccluskey
module Cube = Nano_logic.Cube
module TT = Nano_logic.Truth_table

let covers_exactly ~arity cover tt =
  TT.equal (Cube.Cover.to_truth_table ~arity cover) tt

let test_simple_functions () =
  (* AND: one cube. OR: n cubes of one literal. Majority: 3 cubes. *)
  let check name tt expected_cubes =
    let cover = Espresso.minimize_table tt in
    Alcotest.(check bool) (name ^ " correct") true
      (covers_exactly ~arity:(TT.arity tt) cover tt);
    Alcotest.(check int) (name ^ " cubes") expected_cubes
      (Cube.Cover.cube_count cover)
  in
  check "and3" (Std_functions.and_all ~arity:3) 1;
  check "or3" (Std_functions.or_all ~arity:3) 3;
  check "maj3" (Std_functions.majority ~arity:3) 3;
  check "parity3" (Std_functions.parity ~arity:3) 4

let test_tautology () =
  let cover =
    Espresso.minimize ~arity:4 ~on_set:(List.init 16 (fun i -> i)) ~dc_set:[]
  in
  Alcotest.(check int) "one cube" 1 (Cube.Cover.cube_count cover);
  Alcotest.(check int) "no literals" 0 (Cube.Cover.literal_count cover)

let test_empty () =
  Alcotest.(check int) "empty" 0
    (Cube.Cover.cube_count (Espresso.minimize ~arity:3 ~on_set:[] ~dc_set:[]))

let test_dont_cares_exploited () =
  let with_dc = Espresso.minimize ~arity:2 ~on_set:[ 1 ] ~dc_set:[ 3 ] in
  Alcotest.(check int) "single literal" 1 (Cube.Cover.literal_count with_dc);
  Alcotest.(check bool) "off minterm avoided" false
    (Cube.Cover.eval with_dc 0);
  Alcotest.(check bool) "off minterm avoided 2" false
    (Cube.Cover.eval with_dc 2)

let test_matches_qm_quality () =
  (* On small random functions the heuristic should land within one cube
     of the exact minimum most of the time; assert a loose bound. *)
  let rng = Nano_util.Prng.create ~seed:77 in
  for _ = 1 to 30 do
    let arity = 4 + Nano_util.Prng.int rng ~bound:3 in
    let tt = TT.create ~arity (fun _ -> Nano_util.Prng.bool rng) in
    let exact = QM.minimize_table tt in
    let heuristic = Espresso.minimize_table tt in
    Alcotest.(check bool) "correct" true (covers_exactly ~arity heuristic tt);
    let ec = Cube.Cover.cube_count exact in
    let hc = Cube.Cover.cube_count heuristic in
    if hc > ec + 2 then
      Alcotest.failf "arity %d: heuristic %d cubes vs exact %d" arity hc ec
  done

let test_scales_past_qm () =
  (* 12-variable random function: espresso-lite must stay fast and
     correct (QM would enumerate a huge prime set here). *)
  let arity = 12 in
  let rng = Nano_util.Prng.create ~seed:5 in
  let tt = TT.create ~arity (fun _ -> Nano_util.Prng.float rng < 0.2) in
  let cover = Espresso.minimize_table tt in
  Alcotest.(check bool) "correct at 12 vars" true
    (covers_exactly ~arity cover tt);
  Alcotest.(check bool) "minimized below minterms" true
    (Cube.Cover.cube_count cover < TT.ones tt)

let test_minimize_cover_entry () =
  (* Start from a redundant hand cover. *)
  let on_cover =
    [ Cube.of_string "11--"; Cube.of_string "11-1"; Cube.of_string "111-" ]
  in
  let minimized = Espresso.minimize_cover ~arity:4 ~on_cover ~dc_set:[] in
  Alcotest.(check int) "collapses to one cube" 1
    (Cube.Cover.cube_count minimized);
  Alcotest.(check bool) "same function" true
    (Cube.Cover.equivalent ~arity:4 on_cover minimized)

let prop_correct_cover =
  QCheck2.Test.make ~name:"espresso covers exactly the ON-set" ~count:200
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 7))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      covers_exactly ~arity:n (Espresso.minimize_table tt) tt)

let prop_respects_dont_cares =
  QCheck2.Test.make ~name:"espresso never covers the OFF-set" ~count:40
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 6))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let size = 1 lsl n in
      let kind = Array.init size (fun _ -> Nano_util.Prng.int rng ~bound:3) in
      let collect v =
        Array.to_list kind
        |> List.mapi (fun i k -> (i, k))
        |> List.filter (fun (_, k) -> k = v)
        |> List.map fst
      in
      let on_set = collect 0 and dc_set = collect 1 in
      let cover = Espresso.minimize ~arity:n ~on_set ~dc_set in
      List.for_all (fun m -> Cube.Cover.eval cover m) on_set
      && List.for_all (fun m -> not (Cube.Cover.eval cover m)) (collect 2))

let prop_cubes_are_prime =
  QCheck2.Test.make ~name:"espresso cubes are prime (maximally expanded)"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, arity_pick) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity_pick in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let cover = Espresso.minimize_table tt in
      (* dropping any literal of any cube must hit the OFF-set *)
      List.for_all
        (fun cube ->
          List.for_all
            (fun var ->
              match Cube.literal cube var with
              | Cube.Dont_care -> true
              | Cube.Zero | Cube.One ->
                let widened =
                  Cube.make
                    (Array.init n (fun i ->
                         if i = var then Cube.Dont_care else Cube.literal cube i))
                in
                (* widened must cover some OFF minterm *)
                List.exists
                  (fun m -> Cube.covers widened m && not (TT.eval tt m))
                  (List.init (1 lsl n) (fun i -> i)))
            (List.init n (fun i -> i)))
        cover)

let suite =
  [
    Alcotest.test_case "simple functions" `Quick test_simple_functions;
    Alcotest.test_case "tautology" `Quick test_tautology;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "don't cares" `Quick test_dont_cares_exploited;
    Alcotest.test_case "matches QM quality" `Quick test_matches_qm_quality;
    Alcotest.test_case "scales past QM" `Quick test_scales_past_qm;
    Alcotest.test_case "minimize_cover entry" `Quick test_minimize_cover_entry;
    Helpers.qcheck prop_correct_cover;
    Helpers.qcheck prop_respects_dont_cares;
    Helpers.qcheck prop_cubes_are_prime;
  ]
