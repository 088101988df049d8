(* The benchmark's own tests: its inputs are a function of the seed,
   and its checks count every kind of bad output as a failure. *)

open Perfbench

let explore_lines seed n =
  let g = Gen.explore ~seed in
  List.init n (fun _ -> Gen.explore_next g)

let warm_lines seed n =
  let keyset = Gen.warm_keyset ~seed in
  let s = Gen.warm_stream ~seed ~conn:0 keyset in
  List.init n (fun _ ->
      match Gen.warm_next s with `Repeat k -> keyset.(k) | `Fresh l -> l)

let static_inputs seed =
  let circuits = Gen.static_circuits ~seed in
  (List.map (fun sc -> (sc.Gen.stem, sc.Gen.blif)) circuits, Gen.static_jobs circuits)

let deterministic () =
  let same name a b = Alcotest.(check bool) name true (a = b) in
  let differ name a b = Alcotest.(check bool) name false (a = b) in
  same "explore, same seed" (explore_lines 7 16) (explore_lines 7 16);
  differ "explore, other seed" (explore_lines 7 16) (explore_lines 8 16);
  same "warm_serve, same seed" (warm_lines 7 200) (warm_lines 7 200);
  differ "warm_serve, other seed" (warm_lines 7 200) (warm_lines 8 200);
  same "static_cli, same seed" (static_inputs 7) (static_inputs 7);
  differ "static_cli, other seed" (static_inputs 7) (static_inputs 8)

let no_repeats () =
  let lines = explore_lines 3 64 in
  Alcotest.(check int) "explore requests are distinct" 64
    (List.length (List.sort_uniq compare lines))

let reply_failures () =
  let count got = Check.reply_failure ~expected:"{\"ok\":true}" got in
  Alcotest.(check int) "identical reply" 0 (count (Some "{\"ok\":true}"));
  Alcotest.(check int) "corrupted reply" 1 (count (Some "{\"ok\":tru3}"));
  Alcotest.(check int) "lost reply" 1 (count None)

let containment () =
  let iv name lo hi = { Check.name; lo; hi } in
  let vectors = 4096 in
  let fails reference ivs = Check.containment_failures ~vectors ~reference ivs in
  Alcotest.(check int) "inside" 0 (fails [ ("y", 0.1) ] [ iv "y" 0.05 0.2 ]);
  Alcotest.(check int) "within the half-width" 0
    (fails [ ("y", 0.2 +. (0.5 *. Check.half_width ~vectors 0.2)) ] [ iv "y" 0.05 0.2 ]);
  Alcotest.(check int) "missed containment" 1 (fails [ ("y", 0.4) ] [ iv "y" 0.05 0.2 ]);
  Alcotest.(check int) "missing reference" 1 (fails [] [ iv "y" 0.05 0.2 ])

let static_reply_parsing () =
  let line =
    {|{"model":"m","outputs":[{"name":"y","lo":0.01,"hi":0.6,"exact":false},{"name":"z","lo":0.0,"hi":0.1,"exact":true}]}|}
  in
  match Result.map Check.static_intervals (Nano_util.Json.parse line) with
  | Ok (Some ivs) ->
    let vacuous, width = Check.quality ivs in
    Alcotest.(check int) "vacuous outputs" 1 vacuous;
    Alcotest.(check (float 1e-12)) "mean width" 0.345 width
  | _ -> Alcotest.fail "static intervals not parsed"

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic in the seed" `Quick deterministic;
          Alcotest.test_case "explore never repeats" `Quick no_repeats;
        ] );
      ( "checks",
        [
          Alcotest.test_case "reply failures" `Quick reply_failures;
          Alcotest.test_case "containment" `Quick containment;
          Alcotest.test_case "static reply parsing" `Quick static_reply_parsing;
        ] );
    ]
