module RB = Nano_bounds.Redundancy_bound

let parity10 epsilon =
  { RB.epsilon; delta = 0.01; fanin = 2; sensitivity = 10 }

let test_omega () =
  (* omega = (1 - (1-2e)^k) / 2 *)
  Helpers.check_loose "eps=0.01 k=2"
    ((1. -. (0.98 ** 2.)) /. 2.)
    (RB.omega ~fanin:2 0.01);
  Helpers.check_float "eps=1/2 saturates" 0.5 (RB.omega ~fanin:3 0.5);
  Helpers.check_invalid "eps=0 excluded" (fun () ->
      ignore (RB.omega ~fanin:2 0.))

let test_t_parameter () =
  (* t -> 1 as omega -> 1/2 (channel becomes useless). *)
  Helpers.check_float "omega=1/2" 1. (RB.t_parameter ~omega:0.5);
  (* Closed form at omega = 0.25: (1/64 + 27/64) / (3/16) = 7/3. *)
  Helpers.check_loose "omega=1/4" (7. /. 3.) (RB.t_parameter ~omega:0.25);
  Alcotest.(check bool) "large for small omega" true
    (RB.t_parameter ~omega:0.001 > 100.);
  Helpers.check_invalid "omega=0" (fun () -> ignore (RB.t_parameter ~omega:0.))

let test_extra_gates_reference_values () =
  (* Figure 3's running example: s=10, S0=21, delta=0.01. The numbers
     below pin the implementation against the formula evaluated by
     hand. *)
  let p = parity10 0.01 in
  let s = 10. in
  let w = (1. -. (0.98 ** 2.)) /. 2. in
  let t = ((w ** 3.) +. ((1. -. w) ** 3.)) /. (w *. (1. -. w)) in
  let expected =
    ((s *. Nano_util.Math_ext.log2 s)
    +. (2. *. s *. Nano_util.Math_ext.log2 (2. *. 0.98)))
    /. (2. *. Nano_util.Math_ext.log2 t)
  in
  Helpers.check_loose "hand-computed" expected (RB.extra_gates p)

let test_infinity_at_half () =
  Alcotest.(check bool) "eps=1/2 -> infinite redundancy" true
    (RB.extra_gates (parity10 0.5) = infinity)

let test_redundancy_factor () =
  let f = RB.redundancy_factor (parity10 0.01) ~error_free_size:21 in
  Helpers.check_in_range "around 1.22" ~lo:1.2 ~hi:1.25 f;
  (* Paper: more than an order of magnitude near eps = 0.5. *)
  let f = RB.redundancy_factor (parity10 0.45) ~error_free_size:21 in
  Alcotest.(check bool) "explodes near 1/2" true (f > 10.)

let test_min_size_clamped () =
  (* For tiny sensitivity and eps, the raw formula goes negative; there
     the theorem is vacuous, extra_gates clamps at 0, and the size bound
     stays at S0. *)
  let p = { RB.epsilon = 0.001; delta = 0.4; fanin = 4; sensitivity = 1 } in
  Helpers.check_float "vacuous domain clamps to 0" 0. (RB.extra_gates p);
  Helpers.check_float "clamped" 100. (RB.min_size p ~error_free_size:100);
  Helpers.check_float "factor clamped at 1" 1.
    (RB.redundancy_factor p ~error_free_size:100)

let test_never_negative_on_grid () =
  (* Full (eps, delta) grid sweep: the bound must never be negative, in
     particular for delta close to 1/2 where the numerator's
     [2s log(2(1-2delta))] term diverges to -inf. *)
  let epsilons = Nano_util.Sweep.epsilon_grid ~lo:1e-4 ~hi:0.499 ~steps:25 () in
  let deltas = [ 0.; 0.01; 0.1; 0.25; 0.3; 0.4; 0.45; 0.49; 0.499 ] in
  List.iter
    (fun epsilon ->
      List.iter
        (fun delta ->
          List.iter
            (fun (fanin, sensitivity) ->
              let e = RB.extra_gates { RB.epsilon; delta; fanin; sensitivity } in
              if not (e >= 0.) then
                Alcotest.failf
                  "negative extra_gates %g at eps=%g delta=%g k=%d s=%d" e
                  epsilon delta fanin sensitivity)
            [ (2, 1); (2, 10); (3, 10); (4, 100) ])
        deltas)
    epsilons

let test_domain () =
  Alcotest.(check bool) "valid" true (RB.valid (parity10 0.1));
  Alcotest.(check bool) "delta 1/2 invalid" false
    (RB.valid { (parity10 0.1) with RB.delta = 0.5 });
  Alcotest.(check bool) "fanin 1 invalid" false
    (RB.valid { (parity10 0.1) with RB.fanin = 1 });
  Helpers.check_invalid "evaluate outside domain" (fun () ->
      ignore (RB.extra_gates { (parity10 0.1) with RB.sensitivity = 0 }))

let test_upper_bound_consistency () =
  (* The lower bound must stay below the classical S0 log S0 upper bound
     for moderate eps (it can exceed it arbitrarily close to 1/2, where
     the upper-bound constructions assume eps bounded away from 1/2). *)
  let s0 = 21 in
  let upper = RB.size_upper_bound ~error_free_size:s0 in
  List.iter
    (fun epsilon ->
      let lower = RB.min_size (parity10 epsilon) ~error_free_size:s0 in
      if lower > upper then
        Alcotest.failf "lower %g exceeds upper %g at eps=%g" lower upper
          epsilon)
    [ 0.001; 0.01; 0.05; 0.1 ]

let test_omega_models_differ () =
  let gate = RB.omega ~model:RB.Gate_lumped ~fanin:3 0.05 in
  let wire = RB.omega ~model:RB.Wire_split ~fanin:3 0.05 in
  Alcotest.(check bool) "lumped noisier" true (gate > wire)

(* At ε where 1 - (1 - 2ε)^k rounds to 0, ω must stay positive and
   keep its leading term: kε for the lumped model, ε/k for the split one
   (until ε/k falls below the smallest positive double). Theorem 2 then
   prices every such ε without raising. At and above the 1e-6 cutoff
   the direct formula's bytes are kept. *)
let test_omega_at_tiny_epsilon () =
  let tiny = [ 1e-17; 1e-300; Float.succ 0. ] in
  List.iter
    (fun fanin ->
      let k = float_of_int fanin in
      List.iter
        (fun eps ->
          let label model = Printf.sprintf "%s k=%d eps=%h" model fanin eps in
          let lumped = RB.omega ~fanin eps in
          Alcotest.(check bool) (label "lumped > 0") true (lumped > 0.);
          Alcotest.(check bool)
            (label "lumped ~ k eps") true
            (Float.abs ((lumped /. (k *. eps)) -. 1.) < 1e-12);
          let extra = RB.extra_gates { (parity10 eps) with RB.fanin } in
          Alcotest.(check bool)
            (label "extra gates finite, >= 0")
            true
            (Float.is_finite extra && extra >= 0.);
          if eps /. k > 0. then begin
            let split = RB.omega ~model:RB.Wire_split ~fanin eps in
            Alcotest.(check bool) (label "split > 0") true (split > 0.);
            Alcotest.(check bool)
              (label "split ~ eps / k") true
              (Float.abs ((split /. (eps /. k)) -. 1.) < 1e-12)
          end)
        tiny;
      List.iter
        (fun eps ->
          let x = 1. -. (2. *. eps) in
          Alcotest.(check (float 0.))
            (Printf.sprintf "direct form k=%d eps=%g" fanin eps)
            ((1. -. Nano_util.Math_ext.float_pow_int x fanin) /. 2.)
            (RB.omega ~fanin eps))
        [ 1e-6; 1e-4; 0.01; 0.3 ])
    [ 2; 3; 4 ]

(* At the smallest subnormal ε, t = 2^1073 overflows and Wire_split's
   ε/k lies below every positive double; Theorem 2 must still price
   both models, from log2 t. *)
let test_smallest_subnormal_epsilon () =
  let eps = Float.succ 0. in
  let log_t = RB.log2_t ~fanin:2 eps in
  Helpers.check_in_range "lumped log2 t" ~lo:1072.99 ~hi:1073.01 log_t;
  Helpers.check_in_range "lumped extra gates" ~lo:0.0245 ~hi:0.0246
    (RB.extra_gates (parity10 eps));
  List.iter
    (fun fanin ->
      let p = { (parity10 eps) with RB.fanin } in
      let factor =
        RB.redundancy_factor ~model:RB.Wire_split p ~error_free_size:21
      in
      Alcotest.(check bool)
        (Printf.sprintf "split factor at k=%d finite and >= 1" fanin)
        true
        (Float.is_finite factor && factor >= 1.);
      Alcotest.(check bool)
        (Printf.sprintf "split omega at k=%d positive" fanin)
        true
        (RB.omega ~model:RB.Wire_split ~fanin eps > 0.))
    [ 2; 3; 4 ];
  (* At and above the cutoff log2_t is the direct form, bit for bit. *)
  List.iter
    (fun eps ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "direct log2 t at eps=%g" eps)
        (Nano_util.Math_ext.log2
           (RB.t_parameter ~omega:(RB.omega ~fanin:2 eps)))
        (RB.log2_t ~fanin:2 eps))
    [ 1e-6; 0.01; 0.3; 0.5 ]

let prop_monotone_in_epsilon =
  QCheck2.Test.make ~name:"extra gates grow with eps" ~count:200
    QCheck2.Gen.(pair (float_range 0.001 0.2) (float_range 1.1 2.))
    (fun (eps, factor) ->
      let e1 = RB.extra_gates (parity10 eps) in
      let e2 = RB.extra_gates (parity10 (Float.min 0.49 (eps *. factor))) in
      e2 >= e1 -. 1e-9)

let prop_monotone_in_sensitivity =
  QCheck2.Test.make ~name:"extra gates grow with sensitivity" ~count:200
    QCheck2.Gen.(pair (int_range 2 40) (int_range 1 20))
    (fun (s, ds) ->
      let p1 = { (parity10 0.05) with RB.sensitivity = s } in
      let p2 = { (parity10 0.05) with RB.sensitivity = s + ds } in
      RB.extra_gates p2 >= RB.extra_gates p1 -. 1e-9)

let prop_tighter_delta_costs_more =
  QCheck2.Test.make ~name:"smaller delta needs more redundancy" ~count:200
    QCheck2.Gen.(pair (float_range 0.0001 0.2) (float_range 0.21 0.49))
    (fun (tight, loose) ->
      let p_tight = { (parity10 0.05) with RB.delta = tight } in
      let p_loose = { (parity10 0.05) with RB.delta = loose } in
      RB.extra_gates p_tight >= RB.extra_gates p_loose -. 1e-9)

let suite =
  [
    Alcotest.test_case "omega" `Quick test_omega;
    Alcotest.test_case "t parameter" `Quick test_t_parameter;
    Alcotest.test_case "reference values" `Quick
      test_extra_gates_reference_values;
    Alcotest.test_case "infinite at eps=1/2" `Quick test_infinity_at_half;
    Alcotest.test_case "redundancy factor" `Quick test_redundancy_factor;
    Alcotest.test_case "min size clamped" `Quick test_min_size_clamped;
    Alcotest.test_case "never negative on grid" `Quick
      test_never_negative_on_grid;
    Alcotest.test_case "domain" `Quick test_domain;
    Alcotest.test_case "upper bound consistency" `Quick
      test_upper_bound_consistency;
    Alcotest.test_case "omega models differ" `Quick test_omega_models_differ;
    Alcotest.test_case "omega positive at tiny eps" `Quick
      test_omega_at_tiny_epsilon;
    Alcotest.test_case "smallest subnormal eps" `Quick
      test_smallest_subnormal_epsilon;
    Helpers.qcheck prop_monotone_in_epsilon;
    Helpers.qcheck prop_monotone_in_sensitivity;
    Helpers.qcheck prop_tighter_delta_costs_more;
  ]
