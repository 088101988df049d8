module Mux = Nano_redundancy.Multiplexing
module Netlist = Nano_netlist.Netlist

let test_unit_structure () =
  let n = Mux.nand_unit ~bundle:8 ~restorative_stages:2 ~seed:1 in
  Alcotest.(check int) "inputs" 16 (List.length (Netlist.inputs n));
  Alcotest.(check int) "outputs" 8 (List.length (Netlist.outputs n));
  Alcotest.(check int) "gates" (Mux.size ~bundle:8 ~restorative_stages:2)
    (Netlist.size n);
  Alcotest.(check int) "size formula" 40
    (Mux.size ~bundle:8 ~restorative_stages:2)

let test_unit_is_nand_bundle () =
  (* Without noise and with clean bundles, every output wire must equal
     NAND of the logical values. *)
  let n = Mux.nand_unit ~bundle:6 ~restorative_stages:1 ~seed:3 in
  List.iter
    (fun (x, y) ->
      let bindings =
        List.concat
          [
            List.init 6 (fun i -> (Printf.sprintf "x%d" i, x));
            List.init 6 (fun i -> (Printf.sprintf "y%d" i, y));
          ]
      in
      let out = Netlist.eval n bindings in
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "nand %b %b" x y)
            (not (x && y))
            v)
        out)
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_analytic_nand_level () =
  Helpers.check_float "clean high inputs" 0.
    (Mux.analytic_nand_level ~epsilon:0. 1. 1.);
  Helpers.check_float "clean low inputs" 1.
    (Mux.analytic_nand_level ~epsilon:0. 0. 0.);
  (* eps = 1/2 destroys everything. *)
  Helpers.check_float "coin flip" 0.5 (Mux.analytic_nand_level ~epsilon:0.5 1. 1.)

let test_fixed_point () =
  (* Perfect gates restore perfectly. *)
  Helpers.check_loose "eps=0" 1. (Mux.stimulated_fixed_point ~epsilon:0.);
  let fp = Mux.stimulated_fixed_point ~epsilon:0.01 in
  Helpers.check_in_range "eps=1%" ~lo:0.97 ~hi:0.9999 fp;
  (* Above von Neumann's NAND threshold (~0.0887) restoration
     collapses toward 1/2. *)
  let broken = Mux.stimulated_fixed_point ~epsilon:0.2 in
  Helpers.check_in_range "beyond threshold" ~lo:0.4 ~hi:0.75 broken;
  Alcotest.(check bool) "degrades with eps" true (broken < fp)

let test_restoration_sharpens () =
  (* Starting from a degraded stimulated level, one restorative stage
     must move the level closer to the fixed point. *)
  let epsilon = 0.005 in
  let degraded = 0.85 in
  let after = Mux.analytic_stage ~epsilon ~restorative_stages:1 degraded 0.02 in
  (* NAND of high x and low y is stimulated; with restoration it should
     exceed the plain executive-stage level. *)
  let bare = Mux.analytic_stage ~epsilon ~restorative_stages:0 degraded 0.02 in
  Alcotest.(check bool) "restoration helps" true (after > bare -. 1e-9);
  Helpers.check_in_range "close to fp" ~lo:0.97 ~hi:1. after

let test_measured_levels () =
  let measured =
    Mux.measured_output_level ~trials:32 ~epsilon:0.01 ~bundle:17
      ~restorative_stages:2 ~x_level:0.95 ~y_level:0.05 ()
  in
  (* NAND(high, low) is stimulated: expect a high output level. *)
  Helpers.check_in_range "stimulated" ~lo:0.9 ~hi:1.
    measured.Nano_util.Stats.mean;
  let quiet =
    Mux.measured_output_level ~trials:32 ~epsilon:0.01 ~bundle:17
      ~restorative_stages:2 ~x_level:0.95 ~y_level:0.95 ()
  in
  Helpers.check_in_range "quiet" ~lo:0. ~hi:0.1 quiet.Nano_util.Stats.mean

let test_bigger_bundles_tighter () =
  let sd bundle =
    (Mux.measured_output_level ~trials:48 ~epsilon:0.02 ~bundle
       ~restorative_stages:2 ~x_level:0.95 ~y_level:0.05 ())
      .Nano_util.Stats.stddev
  in
  Alcotest.(check bool) "N=65 tighter than N=5" true (sd 65 < sd 5)

let test_domain () =
  Helpers.check_invalid "bundle 1" (fun () ->
      ignore (Mux.nand_unit ~bundle:1 ~restorative_stages:0 ~seed:0));
  Helpers.check_invalid "negative stages" (fun () ->
      ignore (Mux.nand_unit ~bundle:4 ~restorative_stages:(-1) ~seed:0))

let test_measured_epsilon_domain () =
  let measure epsilon =
    Mux.measured_output_level ~trials:1 ~epsilon ~bundle:4
      ~restorative_stages:0 ~x_level:1. ~y_level:1. ()
  in
  List.iter
    (fun epsilon ->
      Helpers.check_invalid (Printf.sprintf "epsilon %g" epsilon) (fun () ->
          ignore (measure epsilon)))
    [ -0.1; 0.6; Float.nan ];
  ignore (measure 0.5)

let prop_analytic_level_in_range =
  QCheck2.Test.make ~name:"analytic levels stay in [0,1]" ~count:200
    QCheck2.Gen.(
      quad (float_range 0. 0.5) (float_range 0. 1.) (float_range 0. 1.)
        (int_range 0 4))
    (fun (epsilon, x, y, stages) ->
      let l = Mux.analytic_stage ~epsilon ~restorative_stages:stages x y in
      l >= 0. && l <= 1.)

let suite =
  [
    Alcotest.test_case "unit structure" `Quick test_unit_structure;
    Alcotest.test_case "unit computes nand" `Quick test_unit_is_nand_bundle;
    Alcotest.test_case "analytic nand level" `Quick test_analytic_nand_level;
    Alcotest.test_case "fixed point" `Quick test_fixed_point;
    Alcotest.test_case "restoration sharpens" `Quick test_restoration_sharpens;
    Alcotest.test_case "measured levels" `Quick test_measured_levels;
    Alcotest.test_case "bigger bundles tighter" `Quick
      test_bigger_bundles_tighter;
    Alcotest.test_case "domain" `Quick test_domain;
    Alcotest.test_case "measured level epsilon domain" `Quick
      test_measured_epsilon_domain;
    Helpers.qcheck prop_analytic_level_in_range;
  ]
