module Netlist = Nano_netlist.Netlist
module Compiled = Nano_netlist.Compiled
module Noisy_sim = Nano_faults.Noisy_sim
module Prng = Nano_util.Prng

let rca8 () = Nano_circuits.Adders.ripple_carry ~width:8

let check_result_equal msg (a : Noisy_sim.result) (b : Noisy_sim.result) =
  Alcotest.(check (float 0.)) (msg ^ ": epsilon") a.epsilon b.epsilon;
  Alcotest.(check int) (msg ^ ": vectors") a.vectors b.vectors;
  Alcotest.(check (float 0.))
    (msg ^ ": any_output_error")
    a.any_output_error b.any_output_error;
  Alcotest.(check (list (pair string (float 0.))))
    (msg ^ ": per_output_error")
    a.per_output_error b.per_output_error;
  Alcotest.(check (array (float 0.)))
    (msg ^ ": node_probability")
    a.node_probability b.node_probability;
  Alcotest.(check (array (float 0.)))
    (msg ^ ": node_activity")
    a.node_activity b.node_activity;
  Alcotest.(check (float 0.))
    (msg ^ ": average_gate_activity")
    a.average_gate_activity b.average_gate_activity

(* ------------------------------------------------------------------ *)
(* Bit-identity against the per-point engine.                           *)
(* ------------------------------------------------------------------ *)

(* The batched kernel consumes the PRNG stream exactly like K per-point
   runs at the same seed: every lane — including ε = 0, which is never
   simulated — must reproduce [simulate] bit for bit. *)
let test_lane_identity () =
  let netlist = rca8 () in
  let epsilons = [| 0.; 0.001; 0.01; 0.05; 0.1 |] in
  let grid =
    Noisy_sim.profile_grid ~seed:11 ~vectors:4096 ~epsilons netlist
  in
  Alcotest.(check int) "parallel to epsilons" (Array.length epsilons)
    (Array.length grid);
  Array.iteri
    (fun i epsilon ->
      let point =
        Noisy_sim.simulate ~seed:11 ~vectors:4096 ~epsilon netlist
      in
      check_result_equal (Printf.sprintf "lane eps=%g" epsilon) point grid.(i))
    epsilons

(* A single-point grid must short-circuit to the per-point engine. *)
let test_single_point () =
  let netlist = rca8 () in
  let grid =
    Noisy_sim.profile_grid ~seed:3 ~vectors:2048 ~epsilons:[| 0.02 |] netlist
  in
  let point = Noisy_sim.simulate ~seed:3 ~vectors:2048 ~epsilon:0.02 netlist in
  check_result_equal "single point" point grid.(0)

let test_empty_grid () =
  let grid = Noisy_sim.profile_grid ~epsilons:[||] (rca8 ()) in
  Alcotest.(check int) "empty grid" 0 (Array.length grid)

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts.                                    *)
(* ------------------------------------------------------------------ *)

let test_jobs_determinism () =
  let netlist = rca8 () in
  let epsilons = [| 0.001; 0.01; 0.05; 0.1 |] in
  let run jobs =
    Noisy_sim.profile_grid ~seed:7 ~vectors:8192 ~jobs ~epsilons netlist
  in
  let g1 = run 1 in
  List.iter
    (fun jobs ->
      let gj = run jobs in
      Array.iteri
        (fun i r ->
          check_result_equal (Printf.sprintf "jobs %d lane %d" jobs i) r
            gj.(i))
        g1)
    [ 2; 3; 4 ]

let test_adaptive_jobs_determinism () =
  let netlist = rca8 () in
  let epsilons = [| 0.001; 0.01; 0.05 |] in
  let run jobs =
    Noisy_sim.profile_grid ~seed:7 ~vectors:16384 ~jobs
      ~mode:(Noisy_sim.Adaptive { half_width = 0.02; z = 1.96 })
      ~epsilons netlist
  in
  let g1 = run 1 in
  let g4 = run 4 in
  Array.iteri
    (fun i r ->
      check_result_equal (Printf.sprintf "adaptive lane %d" i) r g4.(i))
    g1

(* ------------------------------------------------------------------ *)
(* Common-random-number coupling.                                       *)
(* ------------------------------------------------------------------ *)

(* Every lane thins the SAME uniform draw against its threshold, so the
   flip sets are nested across ε and the estimated noisy activity and
   output error climb monotonically along the grid — the variance
   collapse that makes batched sweeps smooth. Sample-path monotonicity
   is not a theorem (an extra flip can cancel a toggle downstream), so
   the grid is spaced widely enough for the signal to dominate; with a
   fixed seed the check is deterministic. The subject must have
   activity below 1/2 — noise drives sw toward 1/2 from either side
   (Theorem 1), so a high-activity circuit would trend DOWN — and an
   AND-tree's rare toggles sit far below it. *)
let test_crn_monotonicity () =
  let netlist = Nano_circuits.Trees.and_tree ~inputs:16 ~fanin:2 in
  let epsilons = [| 0.; 0.01; 0.02; 0.05; 0.1; 0.2 |] in
  let grid =
    Noisy_sim.profile_grid ~seed:19 ~vectors:8192 ~epsilons netlist
  in
  for i = 1 to Array.length grid - 1 do
    if grid.(i).Noisy_sim.average_gate_activity
       < grid.(i - 1).Noisy_sim.average_gate_activity
    then
      Alcotest.failf "activity not monotone at lane %d: %g < %g" i
        grid.(i).Noisy_sim.average_gate_activity
        grid.(i - 1).Noisy_sim.average_gate_activity;
    if grid.(i).Noisy_sim.any_output_error
       < grid.(i - 1).Noisy_sim.any_output_error
    then
      Alcotest.failf "output error not monotone at lane %d: %g < %g" i
        grid.(i).Noisy_sim.any_output_error
        grid.(i - 1).Noisy_sim.any_output_error
  done

(* ------------------------------------------------------------------ *)
(* Adaptive early stopping.                                             *)
(* ------------------------------------------------------------------ *)

let test_adaptive_budget () =
  let netlist = rca8 () in
  let epsilons = [| 0.001; 0.01; 0.05 |] in
  let vectors = 32768 in
  let grid =
    Noisy_sim.profile_grid ~seed:5 ~vectors
      ~mode:(Noisy_sim.Adaptive { half_width = 0.01; z = 1.96 })
      ~epsilons netlist
  in
  Array.iter
    (fun r ->
      if r.Noisy_sim.vectors > vectors then
        Alcotest.failf "lane ran past the budget: %d > %d" r.Noisy_sim.vectors
          vectors;
      if r.Noisy_sim.vectors mod 1024 <> 0 then
        Alcotest.failf "lane froze off a block boundary: %d"
          r.Noisy_sim.vectors)
    grid;
  (* A huge tolerance freezes everything after the first block. *)
  let loose =
    Noisy_sim.profile_grid ~seed:5 ~vectors
      ~mode:(Noisy_sim.Adaptive { half_width = 0.49; z = 1.96 })
      ~epsilons netlist
  in
  Array.iter
    (fun r ->
      Alcotest.(check int) "frozen after one block" 1024 r.Noisy_sim.vectors)
    loose;
  (* A frozen lane's counts equal a Fixed run truncated at its block. *)
  let lane = grid.(1) in
  let fixed =
    Noisy_sim.profile_grid ~seed:5 ~vectors:lane.Noisy_sim.vectors ~epsilons
      netlist
  in
  check_result_equal "frozen lane = truncated fixed run" fixed.(1) lane

(* ------------------------------------------------------------------ *)
(* Argument validation.                                                 *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let netlist = rca8 () in
  let invalid f =
    match f () with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid (fun () ->
      ignore (Noisy_sim.profile_grid ~epsilons:[| 0.7 |] netlist));
  invalid (fun () ->
      ignore (Noisy_sim.profile_grid ~jobs:0 ~epsilons:[| 0.01 |] netlist));
  invalid (fun () ->
      ignore
        (Noisy_sim.profile_grid
           ~mode:(Noisy_sim.Adaptive { half_width = 0.; z = 1.96 })
           ~epsilons:[| 0.01 |] netlist))

(* ------------------------------------------------------------------ *)
(* Block-width invariance.                                              *)
(* ------------------------------------------------------------------ *)

(* The grid sweep must return the same bits at every block width — the
   knob only moves throughput. 320 vectors = 5 words, a ragged tail for
   both width 4 and width 8; jobs sharding composes with blocking. *)
let test_block_width_invariance () =
  let netlist = rca8 () in
  let epsilons = [| 0.; 0.01; 0.05 |] in
  let vectors = 320 in
  let reference =
    Noisy_sim.profile_grid ~seed:5 ~vectors ~block:1 ~epsilons netlist
  in
  List.iter
    (fun block ->
      List.iter
        (fun jobs ->
          let grid =
            Noisy_sim.profile_grid ~seed:5 ~vectors ~block ~jobs ~epsilons
              netlist
          in
          Array.iteri
            (fun i r ->
              check_result_equal
                (Printf.sprintf "block=%d jobs=%d lane=%d" block jobs i)
                reference.(i) r)
            grid)
        [ 1; 2; 4 ])
    [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Heterogeneous (per-gate) grid sweep.                                 *)
(* ------------------------------------------------------------------ *)

(* A couple of structurally different per-gate assignments: even/odd
   striping and a depth-flavored split, at two scales each. *)
let hetero_lanes () =
  [|
    (fun id -> if id mod 2 = 0 then 0.002 else 0.03);
    (fun id -> if id mod 2 = 0 then 0.05 else 0.001);
    (fun id -> if id mod 3 = 0 then 0.01 else 0.02);
    (fun _ -> 0.015);
  |]

(* Each lane of the fused heterogeneous sweep must reproduce the
   stand-alone per-point heterogeneous run bit for bit — including at a
   biased input density, which routes the grid kernel's stimulus through
   the SIMD store stub. *)
let test_heterogeneous_lane_identity () =
  let netlist = rca8 () in
  List.iter
    (fun input_probability ->
      let lanes = hetero_lanes () in
      let grid =
        Noisy_sim.profile_grid_heterogeneous ~seed:13 ~vectors:4096
          ~input_probability ~epsilon_of_lanes:lanes netlist
      in
      Alcotest.(check int)
        "parallel to lanes" (Array.length lanes) (Array.length grid);
      Array.iteri
        (fun k epsilon_of ->
          let point =
            Noisy_sim.simulate_heterogeneous ~seed:13 ~vectors:4096
              ~input_probability ~epsilon_of netlist
          in
          check_result_equal
            (Printf.sprintf "p=%g lane %d" input_probability k)
            point grid.(k))
        lanes)
    [ 0.5; 0.3 ]

(* Gate-uniform lanes collapse to the homogeneous grid: the per-gate
   pack with constant rows must land on exactly the same counters. *)
let test_heterogeneous_matches_homogeneous () =
  let netlist = rca8 () in
  let epsilons = [| 0.004; 0.02; 0.08 |] in
  let hom =
    Noisy_sim.profile_grid ~seed:21 ~vectors:4096 ~epsilons netlist
  in
  let het =
    Noisy_sim.profile_grid_heterogeneous ~seed:21 ~vectors:4096
      ~epsilon_of_lanes:(Array.map (fun e _ -> e) epsilons)
      netlist
  in
  Array.iteri
    (fun i r ->
      (* The heterogeneous engine reports the mean over logic gates,
         which rounds (sum/count) where the homogeneous lane carries the
         requested epsilon exactly; counters must still match bit for
         bit. *)
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "lane %d: epsilon" i)
        r.Noisy_sim.epsilon
        het.(i).Noisy_sim.epsilon;
      check_result_equal
        (Printf.sprintf "lane %d" i)
        { r with Noisy_sim.epsilon = het.(i).Noisy_sim.epsilon }
        het.(i))
    hom

(* Jobs sharding and block width must not move a single bit, including
   on a ragged tail (320 vectors = 5 words). *)
let test_heterogeneous_jobs_block_invariance () =
  let netlist = rca8 () in
  let vectors = 320 in
  let run ~block ~jobs =
    Noisy_sim.profile_grid_heterogeneous ~seed:5 ~vectors ~block ~jobs
      ~input_probability:0.3 ~epsilon_of_lanes:(hetero_lanes ()) netlist
  in
  let reference = run ~block:1 ~jobs:1 in
  List.iter
    (fun block ->
      List.iter
        (fun jobs ->
          Array.iteri
            (fun i r ->
              check_result_equal
                (Printf.sprintf "block=%d jobs=%d lane=%d" block jobs i)
                reference.(i) r)
            (run ~block ~jobs))
        [ 1; 2; 4 ])
    [ 1; 4; 8 ]

let test_heterogeneous_edges () =
  let netlist = rca8 () in
  Alcotest.(check int)
    "empty lane set" 0
    (Array.length
       (Noisy_sim.profile_grid_heterogeneous ~epsilon_of_lanes:[||] netlist));
  let invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid (fun () ->
      Noisy_sim.profile_grid_heterogeneous ~jobs:0
        ~epsilon_of_lanes:[| (fun _ -> 0.01) |]
        netlist);
  invalid (fun () ->
      Noisy_sim.profile_grid_heterogeneous
        ~epsilon_of_lanes:[| (fun _ -> 0.7) |]
        netlist)

(* ------------------------------------------------------------------ *)
(* Compiled-program memo observability.                                 *)
(* ------------------------------------------------------------------ *)

let test_memo_stats () =
  Compiled.clear_cache ();
  let base = Compiled.memo_stats () in
  let n = rca8 () in
  let c1 = Compiled.of_netlist n in
  let after_miss = Compiled.memo_stats () in
  Alcotest.(check int) "one miss"
    (base.Compiled.memo_misses + 1)
    after_miss.Compiled.memo_misses;
  let c2 = Compiled.of_netlist n in
  Alcotest.(check bool) "memoized" true (c1 == c2);
  let after_hit = Compiled.memo_stats () in
  Alcotest.(check int) "one hit"
    (after_miss.Compiled.memo_hits + 1)
    after_hit.Compiled.memo_hits;
  Compiled.clear_cache ();
  let c3 = Compiled.of_netlist n in
  Alcotest.(check bool) "clear_cache drops the entry" false (c1 == c3);
  let after_clear = Compiled.memo_stats () in
  Alcotest.(check int) "recompile counts as a miss"
    (after_hit.Compiled.memo_misses + 1)
    after_clear.Compiled.memo_misses

(* ------------------------------------------------------------------ *)
(* Allocation.                                                          *)
(* ------------------------------------------------------------------ *)

(* Same bar as the per-point kernel: once the lane buffers, counters and
   grid pack exist, the fused grid kernel that runs every profile_grid,
   sweep and analyze --measure allocates nothing on the minor heap —
   golden pair and four coupled lanes included. Native-code only;
   bytecode boxes everything. *)
let test_zero_allocation_batch () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let n = rca8 () in
    let c = Compiled.of_netlist n in
    let rng = Prng.create ~seed:7 in
    let lanes = 4 in
    let grid = Compiled.pack_grid c [| 0.001; 0.01; 0.05; 0.1 |] in
    let count = Compiled.node_count c in
    let out_n = Array.length (Compiled.output_ids c) in
    let buffers () =
      Array.init lanes (fun _ -> Compiled.create_values_blocked c)
    in
    let golden_a = Compiled.create_values_blocked c in
    let golden_b = Compiled.create_values_blocked c in
    let na = buffers () and nb = buffers () in
    let ones0 = Array.make count 0 and toggles0 = Array.make count 0 in
    let counters len = Array.init lanes (fun _ -> Array.make len 0) in
    let ones = counters count and toggles = counters count in
    let out_errors = counters out_n in
    let any = Array.make lanes 0 in
    let loop words =
      Compiled.run_noisy_grid_words c ~grid ~rng ~input_probability:0.5 ~words
        ~need0:true ~golden_a ~golden_b ~na ~nb ~ones0 ~toggles0 ~ones
        ~toggles ~out_errors ~any
    in
    loop 2;
    let before = Gc.minor_words () in
    loop 64;
    let allocated = Gc.minor_words () -. before in
    if allocated <> 0. then
      Alcotest.failf
        "fused grid kernel allocated %.0f minor words over 64 words" allocated

let suite =
  [
    Alcotest.test_case "every lane bit-identical to per-point" `Quick
      test_lane_identity;
    Alcotest.test_case "single-point grid = per-point engine" `Quick
      test_single_point;
    Alcotest.test_case "empty grid" `Quick test_empty_grid;
    Alcotest.test_case "bit-identical across jobs (fixed)" `Quick
      test_jobs_determinism;
    Alcotest.test_case "bit-identical across jobs (adaptive)" `Quick
      test_adaptive_jobs_determinism;
    Alcotest.test_case "CRN coupling: monotone along the grid" `Quick
      test_crn_monotonicity;
    Alcotest.test_case "adaptive stops on block boundaries" `Quick
      test_adaptive_budget;
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "bit-identical at block widths 1/4/8" `Quick
      test_block_width_invariance;
    Alcotest.test_case "heterogeneous lanes bit-identical to per-point" `Quick
      test_heterogeneous_lane_identity;
    Alcotest.test_case "heterogeneous with uniform rows = homogeneous" `Quick
      test_heterogeneous_matches_homogeneous;
    Alcotest.test_case "heterogeneous bit-identical across jobs/blocks" `Quick
      test_heterogeneous_jobs_block_invariance;
    Alcotest.test_case "heterogeneous edge cases" `Quick
      test_heterogeneous_edges;
    Alcotest.test_case "memo stats and clear_cache" `Quick test_memo_stats;
    Alcotest.test_case "batched inner loop allocates nothing" `Quick
      test_zero_allocation_batch;
  ]
