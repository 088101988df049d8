module BE = Nano_bounds.Benchmark_eval
module Profile = Nano_bounds.Profile

let rca8_profile () =
  Profile.of_netlist
    (Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8))

let test_paper_constants () =
  Alcotest.(check (list (float 0.))) "epsilons" [ 0.001; 0.01; 0.1 ]
    BE.paper_epsilons;
  Helpers.check_float "delta" 0.01 BE.paper_delta

let test_row_fields () =
  let p = rca8_profile () in
  let row = BE.evaluate_profile p ~epsilon:0.01 in
  Alcotest.(check string) "name" "rca8" row.BE.benchmark;
  Helpers.check_float "delta default" 0.01 row.BE.delta;
  Alcotest.(check bool) "energy > 1" true (row.BE.energy_ratio > 1.);
  Alcotest.(check bool) "size > 1" true (row.BE.size_ratio > 1.);
  (match row.BE.delay_ratio with
  | Some d -> Alcotest.(check bool) "delay >= 1" true (d >= 1.)
  | None -> Alcotest.fail "rca8 at 1% must be feasible")

let test_suite_shape () =
  let p = rca8_profile () in
  let rows = BE.evaluate_suite [ p; { p with Profile.name = "copy" } ] in
  Alcotest.(check int) "profiles x epsilons" 6 (List.length rows);
  (* grouped by benchmark: first three rows belong to rca8 *)
  let names = List.map (fun r -> r.BE.benchmark) rows in
  Alcotest.(check (list string)) "grouping"
    [ "rca8"; "rca8"; "rca8"; "copy"; "copy"; "copy" ]
    names

let test_figure7_shape () =
  (* The paper's qualitative claims for Figure 7: bounds increase
     significantly with higher error rates. *)
  let p = rca8_profile () in
  let energy eps = (BE.evaluate_profile p ~epsilon:eps).BE.energy_ratio in
  Alcotest.(check bool) "monotone" true
    (energy 0.001 < energy 0.01 && energy 0.01 < energy 0.1);
  Alcotest.(check bool) "substantial at 0.1" true (energy 0.1 > 1.5)

let test_figure8_shape () =
  (* Average power drops below 1 at the high error rate for fanin-2-ish
     circuits (delay explodes); EDP keeps growing. *)
  let p = rca8_profile () in
  let row_low = BE.evaluate_profile p ~epsilon:0.001 in
  let row_high = BE.evaluate_profile p ~epsilon:0.1 in
  (match row_low.BE.average_power_ratio, row_high.BE.average_power_ratio with
  | Some lo, Some hi ->
    Alcotest.(check bool) "power overhead at low eps" true (lo > 1.);
    Alcotest.(check bool) "power saving at high eps" true (hi < 1.)
  | _ -> Alcotest.fail "feasible range expected");
  match row_low.BE.energy_delay_ratio, row_high.BE.energy_delay_ratio with
  | Some lo, Some hi -> Alcotest.(check bool) "edp grows" true (hi > lo)
  | _ -> Alcotest.fail "feasible range expected"

let test_leakage_share_matters () =
  let p = rca8_profile () in
  (* For a low-activity circuit the 50% leakage assumption softens the
     energy bound versus a switching-only accounting. *)
  let p = { p with Profile.sw0 = 0.2 } in
  let with_leak =
    (BE.evaluate_profile ~leakage_share0:0.5 p ~epsilon:0.05).BE.energy_ratio
  in
  let no_leak =
    (BE.evaluate_profile ~leakage_share0:0.0 p ~epsilon:0.05).BE.energy_ratio
  in
  Alcotest.(check bool) "switching-only is larger" true (no_leak > with_leak)

(* A 3x3 measured (eps x delta) grid on mapped c17, encoded through the
   service protocol: the batched engine and three single-lane runs
   must give the same bytes. *)
let test_measured_grid_json_identical () =
  let circuit = Helpers.mapped_suite ~max_fanin:3 "c17" in
  let epsilons = [ 0.001; 0.01; 0.05 ] in
  let deltas = [ 0.01; 0.05; 0.1 ] in
  let vectors = 2048 and seed = 42 in
  let profile = Profile.of_netlist circuit in
  let encode rows =
    String.concat "\n"
      (List.map
         (fun r ->
           Nano_util.Json.to_string
             (Nano_service.Protocol.measured_row_to_json r))
         rows)
  in
  let batched =
    BE.measured_grid ~deltas ~epsilons ~vectors ~seed ~profile circuit
  in
  let per_point =
    List.concat_map
      (fun epsilon ->
        BE.measured_grid ~deltas ~epsilons:[ epsilon ] ~vectors ~seed ~profile
          circuit)
      epsilons
  in
  Alcotest.(check int) "3x3 rows" 9 (List.length batched);
  Alcotest.(check string) "batched JSON = per-point JSON" (encode per_point)
    (encode batched)

let suite =
  [
    Alcotest.test_case "paper constants" `Quick test_paper_constants;
    Alcotest.test_case "row fields" `Quick test_row_fields;
    Alcotest.test_case "suite shape" `Quick test_suite_shape;
    Alcotest.test_case "figure 7 shape" `Quick test_figure7_shape;
    Alcotest.test_case "figure 8 shape" `Quick test_figure8_shape;
    Alcotest.test_case "leakage share matters" `Quick test_leakage_share_matters;
    Alcotest.test_case "measured grid JSON batched = per-point" `Quick
      test_measured_grid_json_identical;
  ]
