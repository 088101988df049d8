module Noisy_seq = Nano_seq.Noisy_seq
module Circuits = Nano_seq.Seq_circuits

let test_zero_noise () =
  let m = Circuits.counter ~bits:4 in
  let t = Noisy_seq.simulate ~epsilon:0. ~cycles:32 m in
  Array.iter (fun e -> Helpers.check_float "no output errors" 0. e)
    t.Noisy_seq.output_error_per_cycle;
  Helpers.check_float "no state corruption" 0. t.Noisy_seq.final_state_error;
  Alcotest.(check bool) "no halflife" true (Noisy_seq.state_halflife t = None)

let test_counter_accumulates_errors () =
  (* A counter never flushes a corrupted count: state error is
     monotone-ish and approaches 1. *)
  let m = Circuits.counter ~bits:8 in
  let t = Noisy_seq.simulate ~epsilon:0.01 ~cycles:128 ~streams:512 m in
  let early = t.Noisy_seq.state_error_per_cycle.(4) in
  let late = t.Noisy_seq.state_error_per_cycle.(127) in
  Alcotest.(check bool)
    (Printf.sprintf "accumulates: %.3f -> %.3f" early late)
    true (late > early);
  Alcotest.(check bool) "mostly corrupted at the end" true (late > 0.8);
  (match Noisy_seq.state_halflife t with
  | Some h -> Alcotest.(check bool) "halflife sensible" true (h > 0 && h < 128)
  | None -> Alcotest.fail "expected corruption to cross 1/2")

let test_shift_register_flushes () =
  (* A shift register flushes any state corruption within [bits] cycles:
     its long-run state error stays bounded (it cannot accumulate), and
     is far below an accumulator's. *)
  let bits = 8 in
  let shift = Circuits.shift_register ~bits in
  let counter = Circuits.counter ~bits in
  let epsilon = 0.01 in
  let ts = Noisy_seq.simulate ~epsilon ~cycles:128 ~streams:512 shift in
  let tc = Noisy_seq.simulate ~epsilon ~cycles:128 ~streams:512 counter in
  (* the shift register's core is pure wiring: zero noisy gates, so no
     errors at all — it flushes trivially. The counter saturates. *)
  Alcotest.(check bool)
    (Printf.sprintf "shift %.3f << counter %.3f"
       ts.Noisy_seq.final_state_error tc.Noisy_seq.final_state_error)
    true
    (ts.Noisy_seq.final_state_error < tc.Noisy_seq.final_state_error /. 2.)

let test_output_error_tracks_state () =
  (* Once the accumulator's state diverges, its observable outputs (the
     registered value) stay wrong: late output error ~ late state
     error. *)
  let m = Circuits.accumulator ~width:8 in
  let t = Noisy_seq.simulate ~epsilon:0.005 ~cycles:96 ~streams:512 m in
  let late_out = t.Noisy_seq.output_error_per_cycle.(95) in
  let late_state = t.Noisy_seq.state_error_per_cycle.(94) in
  Helpers.check_in_range "outputs track state"
    ~lo:(late_state -. 0.12) ~hi:(late_state +. 0.12) late_out

let test_more_noise_faster_corruption () =
  let m = Circuits.accumulator ~width:8 in
  let h epsilon =
    match
      Noisy_seq.state_halflife
        (Noisy_seq.simulate ~epsilon ~cycles:256 ~streams:256 m)
    with
    | Some h -> h
    | None -> 256
  in
  Alcotest.(check bool) "higher eps corrupts faster" true (h 0.02 <= h 0.002)

let test_streams_rounding () =
  let m = Circuits.counter ~bits:2 in
  let t = Noisy_seq.simulate ~epsilon:0.01 ~cycles:4 ~streams:100 m in
  Alcotest.(check int) "rounded to word lanes" 128 t.Noisy_seq.streams

let test_epsilon_domain () =
  let m = Circuits.counter ~bits:2 in
  List.iter
    (fun epsilon ->
      Helpers.check_invalid (Printf.sprintf "epsilon %g" epsilon) (fun () ->
          ignore (Noisy_seq.simulate ~epsilon ~cycles:2 m)))
    [ -0.1; 0.6; Float.nan ];
  ignore (Noisy_seq.simulate ~epsilon:0.5 ~cycles:2 m)

let suite =
  [
    Alcotest.test_case "zero noise" `Quick test_zero_noise;
    Alcotest.test_case "counter accumulates" `Quick
      test_counter_accumulates_errors;
    Alcotest.test_case "shift register flushes" `Quick
      test_shift_register_flushes;
    Alcotest.test_case "output tracks state" `Quick
      test_output_error_tracks_state;
    Alcotest.test_case "noise vs corruption speed" `Quick
      test_more_noise_faster_corruption;
    Alcotest.test_case "streams rounding" `Quick test_streams_rounding;
    Alcotest.test_case "epsilon domain" `Quick test_epsilon_domain;
  ]
