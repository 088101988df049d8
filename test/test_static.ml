module Static = Nano_static.Static
module Reliability = Nano_faults.Reliability
module Noisy_sim = Nano_faults.Noisy_sim
module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder

(* Agresti–Coull half-width around an empirical error count: the
   adjusted point estimate (errors + 2) / (n + 4) keeps the width honest
   at zero observed errors. The deterministic fixed-seed tests use the
   95% quantile; the QCheck properties draw fresh random seeds every run
   and perform ~100 containment checks, so they widen to z = 5 (~3e-7
   one-sided) to keep the expected false-alarm count over the suite's
   lifetime negligible — a genuine soundness bug overshoots by far more
   than the interval width. *)
let ac_half_width ?(z = 1.96) ~vectors ~errors () =
  let n = float_of_int vectors in
  let pt = (float_of_int errors +. 2.) /. (n +. 4.) in
  z *. sqrt (pt *. (1. -. pt) /. n)

let check_contains ?z msg iv ~vectors estimate =
  let errors = int_of_float (Float.round (estimate *. float_of_int vectors)) in
  let slack = ac_half_width ?z ~vectors ~errors () in
  if not (Static.contains iv ~slack estimate) then
    Alcotest.failf "%s: MC %.6g outside [%.6g, %.6g] (+/- %.2g)" msg estimate
      iv.Static.lo iv.Static.hi slack

let inverter () =
  let b = B.create () in
  let x = B.input b "x" in
  B.output b "o" (B.not_ b x);
  B.finish b

(* ------------------------------------------------------------------ *)
(* Exactness on trees: every interval must be a point and agree with   *)
(* the joint-pair reference (and its closed forms).                    *)
(* ------------------------------------------------------------------ *)

let test_single_gate_point () =
  let t = Static.analyze ~epsilon:0.05 (inverter ()) in
  let iv = List.assoc "o" t.Static.per_output_error in
  Alcotest.(check bool) "point" true (Static.is_point iv);
  Helpers.check_float "delta = eps" 0.05 iv.Static.lo

let test_parity_tree_exact () =
  let netlist = Nano_circuits.Trees.parity_tree ~inputs:8 ~fanin:2 in
  let epsilon = 0.02 in
  let t = Static.analyze ~epsilon netlist in
  let iv = List.assoc "parity" t.Static.per_output_error in
  Alcotest.(check bool) "point interval" true (Static.is_point iv);
  let gates = Netlist.size netlist in
  let expected =
    0.5 *. (1. -. ((1. -. (2. *. epsilon)) ** float_of_int gates))
  in
  Helpers.check_loose "closed form" expected iv.Static.lo;
  (* Exact everywhere: trees keep the whole pair propagation alive. *)
  Alcotest.(check int) "all nodes exact" (Netlist.node_count netlist)
    t.Static.exact_nodes

let test_tree_matches_reference () =
  let netlist = Nano_circuits.Trees.and_tree ~inputs:8 ~fanin:2 in
  let epsilon = 0.03 in
  let t = Static.analyze ~epsilon netlist in
  let r = Reliability.analyze ~epsilon netlist in
  List.iter2
    (fun (name, iv) (name', e) ->
      Alcotest.(check string) "output order" name name';
      Alcotest.(check bool) "point" true (Static.is_point iv);
      Helpers.check_loose ("exact " ^ name) e iv.Static.lo)
    t.Static.per_output_error r.Reliability.per_output_error

let test_tree_point_matches_mc () =
  let netlist = Nano_circuits.Trees.and_tree ~inputs:8 ~fanin:2 in
  let epsilon = 0.03 in
  let vectors = 65536 in
  let t = Static.analyze ~epsilon netlist in
  let mc = Noisy_sim.simulate ~vectors ~epsilon netlist in
  List.iter
    (fun (name, iv) ->
      check_contains ("tree point vs MC " ^ name) iv ~vectors
        (List.assoc name mc.Noisy_sim.per_output_error))
    t.Static.per_output_error

(* ------------------------------------------------------------------ *)
(* Signal probabilities: exact BDD path against the exact activity     *)
(* estimator on reconvergent circuits.                                 *)
(* ------------------------------------------------------------------ *)

let test_probability_matches_exact_bdd () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0. netlist in
  let exact = Nano_sim.Activity.exact netlist in
  Array.iteri
    (fun id p ->
      let iv = t.Static.nodes.(id).Static.probability in
      if not (Static.contains iv ~slack:1e-9 p) then
        Alcotest.failf "node %d: exact prob %.6g outside [%.6g, %.6g]" id p
          iv.Static.lo iv.Static.hi)
    exact.Nano_sim.Activity.node_probability;
  (* Small circuit: every probability should have come from a BDD. *)
  Alcotest.(check int) "all probabilities exact"
    (Netlist.node_count netlist) t.Static.bdd_nodes

(* ------------------------------------------------------------------ *)
(* Exhaustive oracle: simulate all 2^n input vectors and count ones    *)
(* per node. Independent of the BDD kernel, unlike Activity.exact.     *)
(* ------------------------------------------------------------------ *)

(* Bit [b] of word [w] is input vector [64 w + b]; input [i] reads bit
   [i] of the vector index. *)
let exhaustive_probabilities netlist =
  let k = Netlist.input_count netlist in
  let low_patterns =
    [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
       0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]
  in
  let valid = if k >= 6 then -1L else Nano_util.Bits.ones_below (1 lsl k) in
  let ones = Array.make (Netlist.node_count netlist) 0 in
  for w = 0 to (1 lsl max 0 (k - 6)) - 1 do
    let input_words =
      Array.init k (fun i ->
          if i < 6 then low_patterns.(i)
          else if (w lsr (i - 6)) land 1 = 1 then -1L
          else 0L)
    in
    Array.iteri
      (fun id v ->
        ones.(id) <- ones.(id) + Nano_util.Bits.popcount64 (Int64.logand v valid))
      (Nano_sim.Bitsim.eval_words netlist input_words)
  done;
  Array.map (fun c -> float_of_int c /. float_of_int (1 lsl k)) ones

(* Every probability interval contains the exhaustive value; when every
   node got a BDD, every point equals it exactly (both are dyadic
   rationals with at most [inputs] bits, so no rounding intervenes).
   Returns whether the equality check applied. *)
let check_against_exhaustive ?cone_budget msg netlist =
  let t = Static.analyze ?cone_budget ~epsilon:0. netlist in
  let truth = exhaustive_probabilities netlist in
  let all_bdd = t.Static.bdd_nodes = Netlist.node_count netlist in
  Array.iteri
    (fun id p ->
      let iv = t.Static.nodes.(id).Static.probability in
      if not (Static.contains iv p) then
        Alcotest.failf "%s node %d: exhaustive %.17g outside [%.17g, %.17g]" msg
          id p iv.Static.lo iv.Static.hi;
      if all_bdd && not (iv.Static.lo = p && iv.Static.hi = p) then
        Alcotest.failf "%s node %d: BDD point [%.17g, %.17g] <> exhaustive %.17g"
          msg id iv.Static.lo iv.Static.hi p)
    truth;
  all_bdd

let test_probabilities_match_exhaustive () =
  let named = Nano_circuits.Adders.ripple_carry ~width:8 in
  let spelled =
    Result.get_ok (Nano_blif.Blif.parse_string (Nano_blif.Blif.to_string named))
  in
  Alcotest.(check int) "17 inputs" 17 (Netlist.input_count named);
  List.iter
    (fun (msg, netlist) ->
      Alcotest.(check bool) (msg ^ ": every node has a BDD") true
        (check_against_exhaustive ~cone_budget:4096 msg netlist);
      (* At the default budget some nodes fall back to intervals, which
         must still contain the truth. *)
      ignore (check_against_exhaustive msg netlist))
    [ ("rca8", named); ("rca8.blif", spelled) ];
  Alcotest.(check bool) "the spelling is the larger netlist" true
    (Netlist.node_count spelled > Netlist.node_count named)

let exhaustive_property =
  QCheck2.Test.make ~count:30
    ~name:"static probabilities = exhaustive enumeration (12 inputs)"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let netlist =
        Helpers.random_netlist ~seed ~inputs:12 ~gates:(20 + (seed mod 40)) ()
      in
      let msg = Printf.sprintf "seed %d" seed in
      (* No 12-variable diagram exceeds 4096 nodes, so every node gets a
         BDD there; the small budgets exercise the interval fallback. *)
      check_against_exhaustive ~cone_budget:4096 msg netlist
      && (ignore (check_against_exhaustive ~cone_budget:8 msg netlist);
          ignore (check_against_exhaustive ~cone_budget:0 msg netlist);
          true))

let test_zero_epsilon_zero_error () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0. netlist in
  List.iter
    (fun (name, iv) ->
      Helpers.check_float ("no error lo " ^ name) 0. iv.Static.lo;
      Helpers.check_float ("no error hi " ^ name) 0. iv.Static.hi)
    t.Static.per_output_error

(* ------------------------------------------------------------------ *)
(* Containment: the sound interval must cover the Monte-Carlo point    *)
(* (within its confidence half-width) on arbitrary reconvergent        *)
(* circuits, at several epsilons and job counts.                       *)
(* ------------------------------------------------------------------ *)

let containment_property =
  QCheck2.Test.make ~count:25
    ~name:"static interval contains profile-grid MC estimate"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let netlist =
        Helpers.random_netlist ~seed ~inputs:4 ~gates:(10 + (seed mod 15)) ()
      in
      let epsilon = [| 0.001; 0.01; 0.05 |].(seed mod 3) in
      let jobs = 1 + (seed mod 3) in
      let vectors = 4096 in
      let t = Static.analyze ~epsilon netlist in
      let results =
        Noisy_sim.profile_grid ~vectors ~jobs ~epsilons:[| epsilon |] netlist
      in
      List.iter
        (fun (name, iv) ->
          check_contains ~z:5.
            (Printf.sprintf "seed %d output %s" seed name)
            iv ~vectors
            (List.assoc name results.(0).Noisy_sim.per_output_error))
        t.Static.per_output_error;
      check_contains ~z:5.
        (Printf.sprintf "seed %d any-output" seed)
        t.Static.any_output_error ~vectors
        results.(0).Noisy_sim.any_output_error;
      true)

let heterogeneous_containment_property =
  QCheck2.Test.make ~count:10
    ~name:"static heterogeneous interval contains MC estimate"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let netlist = Helpers.random_netlist ~seed ~inputs:4 ~gates:15 () in
      let epsilon_of id = if id mod 2 = 0 then 0.002 else 0.03 in
      let vectors = 4096 in
      let t = Static.analyze ~epsilon_of ~epsilon:0.01 netlist in
      let mc =
        Noisy_sim.simulate_heterogeneous ~vectors ~epsilon_of netlist
      in
      List.iter
        (fun (name, iv) ->
          check_contains ~z:5.
            (Printf.sprintf "seed %d output %s" seed name)
            iv ~vectors
            (List.assoc name mc.Noisy_sim.per_output_error))
        t.Static.per_output_error;
      true)

let test_activity_contains_mc () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let epsilon = 0.01 in
  let t = Static.analyze ~epsilon netlist in
  let mc = Noisy_sim.simulate ~vectors:65536 ~epsilon netlist in
  (* Sampling slack only: the activity interval is not a confidence
     interval, so allow the MC mean a small tolerance. *)
  if
    not
      (Static.contains t.Static.average_gate_activity ~slack:0.02
         mc.Noisy_sim.average_gate_activity)
  then
    Alcotest.failf "avg activity %.6g outside [%.6g, %.6g]"
      mc.Noisy_sim.average_gate_activity t.Static.average_gate_activity.Static.lo
      t.Static.average_gate_activity.Static.hi

(* ------------------------------------------------------------------ *)
(* Criticality ranking and diagnostics.                                *)
(* ------------------------------------------------------------------ *)

let test_ranking_logic_gates_only () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0.01 netlist in
  let ranked = Static.ranked_gates t netlist in
  Alcotest.(check int) "one entry per logic gate" (Netlist.size netlist)
    (List.length ranked);
  List.iter
    (fun id ->
      match Netlist.kind netlist id with
      | Nano_netlist.Gate.Input | Nano_netlist.Gate.Const _
      | Nano_netlist.Gate.Buf ->
        Alcotest.failf "non-logic node %d in ranking" id
      | _ -> ())
    ranked;
  (* Deterministic: same analysis, same order. *)
  let t' = Static.analyze ~epsilon:0.01 netlist in
  Alcotest.(check (list int)) "stable order" ranked
    (Static.ranked_gates t' netlist)

let test_criticality_monotone_depth () =
  (* In a linear inverter chain, gates closer to the output carry
     (weakly) higher first-order criticality. *)
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.not_ b x in
  let n2 = B.not_ b n1 in
  let n3 = B.not_ b n2 in
  B.output b "o" n3;
  let netlist = B.finish b in
  let t = Static.analyze ~epsilon:0.1 netlist in
  let c id = t.Static.nodes.(id).Static.criticality in
  Helpers.check_in_range "deepest gate most critical" ~lo:(c n1) ~hi:infinity
    (c n3);
  Helpers.check_in_range "middle above head" ~lo:(c n1) ~hi:(c n3) (c n2)

let test_vacuous_diagnostics () =
  (* A long chain at a brutal epsilon must collapse to [_, >= 1/2] and
     say so deterministically. *)
  let b = B.create () in
  let x = B.input b "x" in
  let node = ref x in
  for _ = 1 to 64 do
    node := B.not_ b !node
  done;
  B.output b "o" !node;
  let netlist = B.finish b in
  let t = Static.analyze ~epsilon:0.45 netlist in
  let iv = List.assoc "o" t.Static.per_output_error in
  Alcotest.(check bool) "vacuous" true (Static.vacuous iv);
  let diags = Static.diagnostics t netlist in
  Alcotest.(check bool) "has diagnostics" true (diags <> []);
  List.iter
    (fun d ->
      Alcotest.(check string) "pass" "static" d.Nano_lint.Diagnostic.pass)
    diags;
  (* And a benign operating point reports nothing. *)
  let quiet = Static.analyze ~epsilon:0.0001 (inverter ()) in
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Static.diagnostics quiet (inverter ())))

(* ------------------------------------------------------------------ *)
(* Six suite circuits against pinned-seed Monte Carlo.                  *)
(* ------------------------------------------------------------------ *)

(* Seed 0x5eed, 4096 vectors, epsilon 0.01, circuits as built (no
   mapping). The stream is pinned, so z = 3 is margin against one fixed
   draw, not against repeated sampling: a miss is an analyzer or kernel
   bug, not sampling luck. *)
let mc_seed = 0x5eed
let mc_vectors = 4096
let mc_epsilon = 0.01
let mc_circuits = [ "c17"; "rca8"; "parity16"; "intctl27"; "alu8"; "mult16" ]

(* Every output interval contains the measured rate within the slack;
   on trees (every interval a point) the point sits within one
   half-width of it. *)
let test_suite_contains_mc () =
  List.iter
    (fun name ->
      let netlist = Helpers.suite_circuit name in
      let t = Static.analyze ~epsilon:mc_epsilon netlist in
      let mc =
        Noisy_sim.simulate ~seed:mc_seed ~vectors:mc_vectors
          ~epsilon:mc_epsilon netlist
      in
      let outputs =
        List.combine t.Static.per_output_error mc.Noisy_sim.per_output_error
      in
      List.iter
        (fun ((o, iv), (o', measured)) ->
          Alcotest.(check string) "output order" o o';
          check_contains ~z:3. (name ^ " " ^ o) iv ~vectors:mc_vectors measured)
        outputs;
      if List.for_all (fun ((_, iv), _) -> Static.is_point iv) outputs then
        List.iter
          (fun ((o, iv), (_, measured)) ->
            let errors =
              int_of_float (Float.round (measured *. float_of_int mc_vectors))
            in
            let slack = ac_half_width ~z:3. ~vectors:mc_vectors ~errors () in
            if Float.abs (iv.Static.lo -. measured) > slack then
              Alcotest.failf "%s %s: tree point %.6g vs MC %.6g (+/- %.2g)"
                name o iv.Static.lo measured slack)
          outputs)
    mc_circuits

(* One static pass replaces the cold Monte-Carlo profile it stands in
   for (switching activity, output error, and the per-gate criticality
   ranking [harden_top] runs), and must beat it >= 100x over the six
   circuits in aggregate. Each circuit is built fresh, so Monte Carlo
   pays its compile as a cold caller does; static runs once to warm,
   then once timed. Per-circuit ratios are not gated: c17 is too small
   for the kernel to amortise anything. *)
let test_aggregate_speedup () =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let seed = mc_seed and vectors = mc_vectors and epsilon = mc_epsilon in
  let static_s, mc_s =
    List.fold_left
      (fun (static_s, mc_s) name ->
        let netlist = Helpers.suite_circuit name in
        ignore (Static.analyze ~epsilon netlist);
        let t_static = time (fun () -> Static.analyze ~epsilon netlist) in
        let t_mc =
          time (fun () -> Nano_sim.Activity.monte_carlo ~seed ~vectors netlist)
          +. time (fun () -> Noisy_sim.simulate ~seed ~vectors ~epsilon netlist)
          +. time (fun () ->
                 Nano_faults.Criticality.analyze ~seed ~vectors netlist)
        in
        (static_s +. t_static, mc_s +. t_mc))
      (0., 0.) mc_circuits
  in
  let speedup = mc_s /. static_s in
  if not (speedup >= 100.) then
    Alcotest.failf "aggregate speedup %.0fx < 100x (static %.3g s, MC %.3g s)"
      speedup static_s mc_s

let test_invalid_arguments () =
  Helpers.check_invalid "epsilon > 1/2" (fun () ->
      Static.analyze ~epsilon:0.6 (inverter ()));
  Helpers.check_invalid "negative epsilon" (fun () ->
      Static.analyze ~epsilon:(-0.1) (inverter ()));
  Helpers.check_invalid "bad epsilon_of" (fun () ->
      Static.analyze ~epsilon_of:(fun _ -> 0.7) ~epsilon:0.1 (inverter ()))

let test_json_deterministic () =
  let netlist = Nano_circuits.Adders.ripple_carry ~width:4 in
  let t = Static.analyze ~epsilon:0.01 netlist in
  let a = Nano_util.Json.to_string (Static.to_json t netlist) in
  let b = Nano_util.Json.to_string (Static.to_json t netlist) in
  Alcotest.(check string) "byte-identical" a b

let suite =
  [
    Alcotest.test_case "single gate point" `Quick test_single_gate_point;
    Alcotest.test_case "parity tree exact" `Quick test_parity_tree_exact;
    Alcotest.test_case "tree matches reference" `Quick
      test_tree_matches_reference;
    Alcotest.test_case "tree point matches MC" `Slow test_tree_point_matches_mc;
    Alcotest.test_case "probabilities match exact BDD" `Quick
      test_probability_matches_exact_bdd;
    Alcotest.test_case "probabilities match exhaustive enumeration" `Quick
      test_probabilities_match_exhaustive;
    Helpers.qcheck exhaustive_property;
    Alcotest.test_case "zero epsilon, zero error" `Quick
      test_zero_epsilon_zero_error;
    Helpers.qcheck containment_property;
    Helpers.qcheck heterogeneous_containment_property;
    Alcotest.test_case "activity contains MC" `Slow test_activity_contains_mc;
    Alcotest.test_case "ranking is logic gates only" `Quick
      test_ranking_logic_gates_only;
    Alcotest.test_case "criticality monotone in depth" `Quick
      test_criticality_monotone_depth;
    Alcotest.test_case "vacuous diagnostics" `Quick test_vacuous_diagnostics;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
    Alcotest.test_case "json deterministic" `Quick test_json_deterministic;
    Alcotest.test_case "six suite circuits contain pinned-seed MC" `Quick
      test_suite_contains_mc;
    Alcotest.test_case "aggregate speedup over MC >= 100x" `Slow
      test_aggregate_speedup;
  ]
