(* Figure regenerator: reprints every evaluation artifact of the paper
   (Figures 2-8, the headline claim) plus the ablations and extensions
   listed in DESIGN.md, as text tables.

   Run with: dune exec bench/main.exe [-- --jobs N]

   --jobs N sets the domain count used by the parallel figure drivers
   (default: all recommended cores). The output is byte-identical for
   every N; only wall-clock changes. Correctness gates live in
   `dune runtest`; timing lives in perfbench/. *)

module Figures = Nano_bounds.Figures
module Par = Nano_util.Par
module Metrics = Nano_bounds.Metrics
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Report = Nano_report.Report

(* The one flag: [--jobs N]. *)
let jobs =
  let rec find = function
    | "--jobs" :: n :: _ -> int_of_string n
    | _ :: rest -> find rest
    | [] -> Par.default_jobs ()
  in
  find (Array.to_list Sys.argv)

let print_series ~title ~x_label ~y_label series =
  let data =
    List.map (fun s -> (s.Figures.label, s.Figures.points)) series
  in
  print_string (Report.Series.render ~title ~x_label ~y_label data);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Suite profiles (computed once through the full synthesis/simulation  *)
(* pipeline, exactly as Section 6 prescribes).                          *)
(* ------------------------------------------------------------------ *)

let suite_profiles =
  lazy
    (List.map
       (fun entry ->
         let circuit = entry.Nano_circuits.Suite.build () in
         let mapped = Nano_synth.Script.rugged_lite ~max_fanin:3 circuit in
         let profile = Profile.of_netlist mapped in
         (* Report under the suite name rather than the generator name. *)
         { profile with Profile.name = entry.Nano_circuits.Suite.name })
       Nano_circuits.Suite.all)

let num = Report.Table.number

let opt_num = function Some v -> num v | None -> "infeasible"

(* ------------------------------------------------------------------ *)
(* Figures 2-6: analytical curves.                                      *)
(* ------------------------------------------------------------------ *)

let fig2 () = Figures.fig2_activity_map ~jobs ()
let fig3 () = Figures.fig3_redundancy ~jobs ()
let fig4 () = Figures.fig4_leakage ~jobs ()
let fig5 () = Figures.fig5_delay_and_edp ~jobs ()
let fig6 () = Figures.fig6_average_power ~jobs ()

(* ------------------------------------------------------------------ *)
(* Figures 7-8: per-benchmark bounds.                                   *)
(* ------------------------------------------------------------------ *)

let fig7_rows profiles = Benchmark_eval.evaluate_suite ~jobs profiles

let print_fig7 profiles =
  let rows = fig7_rows profiles in
  let table_rows =
    List.map
      (fun r ->
        [
          r.Benchmark_eval.benchmark;
          num r.Benchmark_eval.epsilon;
          num r.Benchmark_eval.energy_ratio;
          opt_num r.Benchmark_eval.delay_ratio;
          num r.Benchmark_eval.size_ratio;
        ])
      rows
  in
  print_string "== Figure 7: normalized energy and delay lower bounds ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "eps"; "energy/E0"; "delay/D0"; "size/S0" ]
       ~rows:table_rows)

let print_fig8 profiles =
  let rows = fig7_rows profiles in
  let table_rows =
    List.map
      (fun r ->
        [
          r.Benchmark_eval.benchmark;
          num r.Benchmark_eval.epsilon;
          opt_num r.Benchmark_eval.average_power_ratio;
          opt_num r.Benchmark_eval.energy_delay_ratio;
        ])
      rows
  in
  print_string
    "== Figure 8: normalized average power and energy-delay lower bounds ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "eps"; "power/P0"; "EDP/EDP0" ]
       ~rows:table_rows)

let print_headline profiles =
  let verdict = Nano_bounds.Headline.check profiles in
  print_string "== Headline claim (abstract / Section 6) ==\n";
  Printf.printf
    "eps = %.2f, delta = %.2f (99%% resilience): energy overhead min %.1f%% \
     mean %.1f%% max %.1f%% -> claim ('at least 40%% more energy in some \
     cases') %s\n"
    verdict.Nano_bounds.Headline.epsilon verdict.Nano_bounds.Headline.delta
    (100. *. verdict.Nano_bounds.Headline.min_overhead)
    (100. *. verdict.Nano_bounds.Headline.mean_overhead)
    (100. *. verdict.Nano_bounds.Headline.max_overhead)
    (if verdict.Nano_bounds.Headline.holds then "HOLDS" else "FAILS");
  List.iter
    (fun (name, overhead) ->
      Printf.printf "  %-12s +%.1f%%\n" name (100. *. overhead))
    verdict.Nano_bounds.Headline.per_benchmark;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)
(* ------------------------------------------------------------------ *)

let print_ablation_omega () =
  print_series ~title:"Ablation A: omega model (Theorem 2)" ~x_label:"eps"
    ~y_label:"redundancy factor"
    (Figures.ablation_omega_models ())

let print_ablation_constructions () =
  (* Compare the lower bound against what NMR actually achieves on an
     8-bit ripple-carry adder at eps = 0.01. *)
  let epsilon = 0.01 in
  let base =
    Nano_synth.Script.rugged_lite (Nano_circuits.Adders.ripple_carry ~width:8)
  in
  let base_profile = Profile.of_netlist base in
  let base_sim = Nano_faults.Noisy_sim.simulate ~vectors:16384 ~epsilon base in
  let rows =
    List.map
      (fun n ->
        let voted = Nano_redundancy.Nmr.make ~n base in
        let sim =
          Nano_faults.Noisy_sim.simulate ~vectors:16384 ~epsilon voted
        in
        let delta_hat = sim.Nano_faults.Noisy_sim.any_output_error in
        let construction_ratio =
          float_of_int (Nano_netlist.Netlist.size voted)
          /. float_of_int (Nano_netlist.Netlist.size base)
        in
        let bound_ratio =
          if delta_hat >= 0.5 then Float.nan
          else
            Nano_bounds.Redundancy_bound.redundancy_factor
              {
                Nano_bounds.Redundancy_bound.epsilon;
                delta = Float.max 1e-6 delta_hat;
                fanin = 2;
                sensitivity = base_profile.Profile.sensitivity;
              }
              ~error_free_size:base_profile.Profile.size
        in
        [
          Printf.sprintf "NMR-%d" n;
          num construction_ratio;
          num delta_hat;
          num bound_ratio;
        ])
      [ 3; 5; 7; 9 ]
  in
  print_string
    "== Ablation B: lower bound vs NMR construction (rca8, eps=0.01) ==\n";
  Printf.printf "unprotected delta_hat = %s\n"
    (num base_sim.Nano_faults.Noisy_sim.any_output_error);
  print_string
    (Report.Table.render
       ~header:
         [ "construction"; "size ratio"; "measured delta"; "bound size ratio" ]
       ~rows);
  (* Von Neumann multiplexing restoration level. *)
  let eps_list = [ 0.001; 0.01; 0.05 ] in
  let mux_rows =
    List.map
      (fun epsilon ->
        let fp = Nano_redundancy.Multiplexing.stimulated_fixed_point ~epsilon in
        let measured =
          Nano_redundancy.Multiplexing.measured_output_level ~trials:64
            ~epsilon ~bundle:33 ~restorative_stages:2 ~x_level:0.95
            ~y_level:0.05 ()
        in
        [
          num epsilon;
          num fp;
          num measured.Nano_util.Stats.mean;
          num measured.Nano_util.Stats.stddev;
        ])
      eps_list
  in
  print_string
    "== Ablation B': NAND multiplexing stimulated level (N=33, U=2, NAND of \
     x=0.95/y=0.05 bundles) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "eps"; "analytic fixed point"; "measured mean"; "sd" ]
       ~rows:mux_rows)

let print_ablation_activity () =
  (* Does the activity estimator change Corollary 2's bound? Compare
     Monte-Carlo and exact-BDD sw0 on the small benchmarks. *)
  let entries = [ "c17"; "mult4"; "rca8"; "parity16" ] in
  let rows =
    List.filter_map
      (fun name ->
        match Nano_circuits.Suite.find name with
        | None -> None
        | Some entry ->
          let mapped =
            Nano_synth.Script.rugged_lite (entry.Nano_circuits.Suite.build ())
          in
          let mc = Profile.of_netlist mapped in
          let ex = Profile.of_netlist ~activity:Profile.Exact_bdd mapped in
          let energy p =
            (Benchmark_eval.evaluate_profile p ~epsilon:0.01)
              .Benchmark_eval.energy_ratio
          in
          Some
            [
              name;
              num mc.Profile.sw0;
              num ex.Profile.sw0;
              num (energy mc);
              num (energy ex);
            ])
      entries
  in
  print_string
    "== Ablation C: activity estimator (Monte-Carlo vs exact BDD) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [
           "benchmark"; "sw0 (MC)"; "sw0 (BDD)"; "E-bound (MC)"; "E-bound (BDD)";
         ]
       ~rows)

let print_substitution_check profiles =
  (* How close do the generated substitutes sit to the published
     ISCAS'85 shapes? The bounds consume scalars, so interface and size
     brackets are what matters (DESIGN.md section 2). *)
  let rows =
    List.filter_map
      (fun entry ->
        match entry.Nano_circuits.Suite.iscas_counterpart with
        | None -> None
        | Some counterpart ->
          Option.bind (Nano_circuits.Iscas_profiles.find counterpart)
            (fun published ->
              let profile =
                List.find_opt
                  (fun p -> p.Profile.name = entry.Nano_circuits.Suite.name)
                  profiles
              in
              Option.map
                (fun p ->
                  [
                    entry.Nano_circuits.Suite.name;
                    counterpart;
                    Printf.sprintf "%d/%d" p.Profile.inputs
                      published.Nano_circuits.Iscas_profiles.inputs;
                    Printf.sprintf "%d/%d" p.Profile.outputs
                      published.Nano_circuits.Iscas_profiles.outputs;
                    Printf.sprintf "%d/%d" p.Profile.size
                      published.Nano_circuits.Iscas_profiles.gates;
                    Printf.sprintf "%d/%d" p.Profile.depth
                      published.Nano_circuits.Iscas_profiles.depth;
                  ])
                profile))
      Nano_circuits.Suite.all
  in
  print_string
    "== Substitution check: generated vs published ISCAS'85 shapes \
     (ours/published) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "substitute"; "for"; "inputs"; "outputs"; "gates"; "depth" ]
       ~rows)

let print_voltage_tradeoff () =
  (* Section 5.2's compensation discussion, quantified. *)
  let tech = Nano_energy.Technology.nm90 in
  let rows =
    List.filter_map
      (fun epsilon ->
        let s = { Figures.parity10 with Metrics.epsilon } in
        match
          ( Nano_bounds.Voltage_tradeoff.iso_energy ~tech s,
            Nano_bounds.Voltage_tradeoff.iso_delay ~tech s )
        with
        | Some iso_e, Some iso_d ->
          let nominal = Nano_bounds.Voltage_tradeoff.nominal ~tech s in
          Some
            [
              num epsilon;
              num nominal.Nano_bounds.Voltage_tradeoff.energy_ratio;
              num nominal.Nano_bounds.Voltage_tradeoff.delay_ratio;
              num iso_e.Nano_bounds.Voltage_tradeoff.vdd;
              num iso_e.Nano_bounds.Voltage_tradeoff.delay_ratio;
              num iso_d.Nano_bounds.Voltage_tradeoff.vdd;
              num iso_d.Nano_bounds.Voltage_tradeoff.energy_ratio;
            ]
        | _ -> None)
      [ 0.001; 0.01; 0.05; 0.1 ]
  in
  print_string
    "== Extension: Vdd compensation (Section 5.2 discussion, parity-10, \
     switching-dominated) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [
           "eps"; "E nom"; "D nom"; "Vdd isoE"; "D @isoE"; "Vdd isoD";
           "E @isoD";
         ]
       ~rows)

let print_crossovers profiles =
  let rows =
    List.map
      (fun p ->
        let scenario =
          Profile.to_scenario p ~epsilon:0.01 ~delta:0.01 ~leakage_share0:0.5
        in
        let cross =
          match Nano_bounds.Crossover.power_crossover scenario with
          | Some e -> num e
          | None -> "-"
        in
        let budget14 =
          match
            Nano_bounds.Crossover.max_epsilon_for_energy_budget ~budget:1.4
              scenario
          with
          | Some e -> num e
          | None -> "-"
        in
        [ p.Profile.name; cross; budget14 ])
      profiles
  in
  print_string
    "== Extension: crossover analysis (power parity; 40% energy budget) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "eps @ P=P0"; "max eps @ E<=1.4E0" ]
       ~rows)

let print_hardening () =
  (* Criticality-guided selective hardening, with von Neumann's caveat
     (equal-epsilon voters are useless) made explicit. *)
  let n = Nano_circuits.Trees.and_tree ~inputs:16 ~fanin:2 in
  let epsilon = 0.02 in
  let unprotected =
    (Nano_faults.Noisy_sim.simulate ~vectors:262144 ~epsilon n)
      .Nano_faults.Noisy_sim.any_output_error
  in
  let r = Nano_faults.Criticality.analyze ~vectors:4096 n in
  let ranked = Nano_faults.Criticality.ranked_gates n r in
  let k = 5 in
  let top = List.filteri (fun i _ -> i < k) ranked in
  let bottom = List.filteri (fun i _ -> i >= List.length ranked - k) ranked in
  let measure ~voter_scale gates =
    let hardened = Nano_redundancy.Selective.harden n ~gates in
    let epsilon_of =
      Nano_redundancy.Selective.voter_epsilon_of hardened
        ~gate_epsilon:epsilon ~voter_epsilon:(epsilon /. voter_scale)
    in
    ( (Nano_faults.Noisy_sim.simulate_heterogeneous ~vectors:262144
         ~epsilon_of hardened.Nano_redundancy.Selective.netlist)
        .Nano_faults.Noisy_sim.any_output_error,
      Nano_redundancy.Selective.size_overhead ~original:n ~hardened )
  in
  let d_top_eq, _ = measure ~voter_scale:1. top in
  let d_top, oh_top = measure ~voter_scale:10. top in
  let d_bottom, oh_bottom = measure ~voter_scale:10. bottom in
  print_string
    "== Extension: criticality-guided hardening (and-tree-16, eps=0.02) ==\n";
  print_string
    (Report.Table.render
       ~header:[ "configuration"; "delta"; "size ratio" ]
       ~rows:
         [
           [ "unprotected"; num unprotected; "1" ];
           [ "top-5 gates, equal-eps voters"; num d_top_eq; num oh_top ];
           [ "top-5 gates, 10x-robust voters"; num d_top; num oh_top ];
           [ "bottom-5 gates, 10x-robust voters"; num d_bottom; num oh_bottom ];
         ]);
  (* analytic reliability cross-check *)
  let analytic = Nano_faults.Reliability.analyze ~epsilon n in
  Printf.printf
    "analytic (pair-propagation) delta of the unprotected tree: %s\n"
    (num (List.assoc "y" analytic.Nano_faults.Reliability.per_output_error))

let print_sequential () =
  let machines =
    [
      ("counter8", Nano_seq.Seq_circuits.counter ~bits:8);
      ("accum16", Nano_seq.Seq_circuits.accumulator ~width:16);
      ("lfsr16", Nano_seq.Seq_circuits.lfsr ~bits:16 ~taps:[ 15; 13; 12; 10 ]);
      (* shift registers are pure wiring (zero logic gates), so the
         per-cycle combinational bound is vacuous for them — a 16-bit
         counter stands in as the low-activity machine instead. *)
      ("counter16", Nano_seq.Seq_circuits.counter ~bits:16);
    ]
  in
  let rows =
    List.map
      (fun (name, m) ->
        let temporal =
          Nano_seq.Seq_netlist.average_gate_temporal_activity ~cycles:2048 m
        in
        let independent =
          (Nano_sim.Activity.monte_carlo ~vectors:2048
             (Nano_seq.Seq_netlist.core m))
            .Nano_sim.Activity.average_gate_activity
        in
        let profile = Nano_seq.Seq_netlist.profile ~cycles:2048 m in
        let bound =
          (Benchmark_eval.evaluate_profile profile ~epsilon:0.01)
            .Benchmark_eval.energy_ratio
        in
        [ name; num temporal; num independent; num bound ])
      machines
  in
  print_string
    "== Extension: sequential machines (future work of the paper) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [ "machine"; "sw (temporal)"; "sw (indep. model)"; "E/E0 @ eps=1%" ]
       ~rows)

let print_minimizer_ablation () =
  (* Exact Quine-McCluskey vs the Espresso-style heuristic on the
     collapsed outputs of the narrow suite circuits. *)
  let rows =
    List.filter_map
      (fun name ->
        Option.bind (Nano_circuits.Suite.find name) (fun entry ->
            let circuit =
              Nano_synth.Strash.run (entry.Nano_circuits.Suite.build ())
            in
            Option.map
              (fun tables ->
                let total f =
                  List.fold_left
                    (fun (c, l) (_, tt) ->
                      let cover = f tt in
                      let cubes, lits =
                        Nano_synth.Quine_mccluskey.cover_cost cover
                      in
                      (c + cubes, l + lits))
                    (0, 0) tables
                in
                let qc, ql = total Nano_synth.Quine_mccluskey.minimize_table in
                let ec, el = total Nano_synth.Espresso_lite.minimize_table in
                [
                  name;
                  Printf.sprintf "%d/%d" qc ql;
                  Printf.sprintf "%d/%d" ec el;
                ])
              (Nano_synth.Collapse.to_truth_tables ~max_inputs:10 circuit)))
      [ "c17"; "mult4" ]
  in
  print_string
    "== Ablation: exact (QM) vs heuristic (Espresso-lite) two-level \
     minimization (cubes/literals) ==\n";
  print_string
    (Report.Table.render ~header:[ "benchmark"; "QM"; "espresso" ] ~rows)

let print_glitch () =
  (* Unit-delay glitch multipliers: how much switching energy the
     zero-delay model (used by the paper and Corollary 2) leaves on the
     table per circuit family. *)
  let rows =
    List.map
      (fun name ->
        match Nano_circuits.Suite.find name with
        | None -> [ name; "-"; "-"; "-" ]
        | Some entry ->
          let mapped =
            Nano_synth.Script.rugged_lite (entry.Nano_circuits.Suite.build ())
          in
          let p = Nano_sim.Glitch.unit_delay ~pairs:2048 mapped in
          [
            name;
            num p.Nano_sim.Glitch.average_gate_settled;
            num p.Nano_sim.Glitch.average_gate_transitions;
            num p.Nano_sim.Glitch.glitch_factor;
          ])
      [ "parity16"; "rca8"; "csel16"; "mult4"; "mult8"; "alu8" ]
  in
  print_string
    "== Extension: glitch (unit-delay) switching vs the zero-delay model ==\n";
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "settled sw"; "unit-delay sw"; "glitch factor" ]
       ~rows)

let print_noisy_sequential () =
  let machines =
    [
      ("counter8", Nano_seq.Seq_circuits.counter ~bits:8);
      ("accum8", Nano_seq.Seq_circuits.accumulator ~width:8);
      ("lfsr16", Nano_seq.Seq_circuits.lfsr ~bits:16 ~taps:[ 15; 13; 12; 10 ]);
    ]
  in
  let rows =
    List.map
      (fun (name, m) ->
        let t =
          Nano_seq.Noisy_seq.simulate ~epsilon:0.01 ~cycles:128 ~streams:256 m
        in
        [
          name;
          num t.Nano_seq.Noisy_seq.output_error_per_cycle.(0);
          num t.Nano_seq.Noisy_seq.output_error_per_cycle.(127);
          num t.Nano_seq.Noisy_seq.final_state_error;
          (match Nano_seq.Noisy_seq.state_halflife t with
          | Some h -> string_of_int h
          | None -> "> 128");
        ])
      machines
  in
  print_string
    "== Extension: error accumulation in clocked machines (eps=1%) ==\n";
  print_string
    (Report.Table.render
       ~header:
         [
           "machine"; "delta @cycle 0"; "delta @cycle 127"; "state err";
           "state halflife";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)

let () =
  print_string "nanobound benchmark harness — reproduces every figure of\n";
  print_string
    "'Energy Bounds for Fault-Tolerant Nanoscale Designs' (DATE 2005)\n\n";
  print_series ~title:"Figure 2: switching activity of error-prone devices"
    ~x_label:"sw(y)" ~y_label:"sw(z)" (fig2 ());
  print_series
    ~title:"Figure 3: minimum redundancy factor (parity-10, delta=0.01)"
    ~x_label:"eps" ~y_label:"(S0+extra)/S0" (fig3 ());
  print_series
    ~title:"Figure 4: normalized leakage/switching ratio (Theorem 3)"
    ~x_label:"eps" ~y_label:"W(eps)/W0" (fig4 ());
  print_series
    ~title:"Figure 5: normalized delay and energy-delay (parity-10)"
    ~x_label:"eps" ~y_label:"ratio vs error-free" (fig5 ());
  print_series ~title:"Figure 6: normalized average power (parity-10)"
    ~x_label:"eps" ~y_label:"P(eps)/P0" (fig6 ());
  let profiles = Lazy.force suite_profiles in
  print_string "== Benchmark suite profiles (Section 6 methodology) ==\n";
  let profile_rows =
    List.map
      (fun p ->
        [
          p.Profile.name;
          string_of_int p.Profile.inputs;
          string_of_int p.Profile.outputs;
          string_of_int p.Profile.size;
          string_of_int p.Profile.depth;
          num p.Profile.avg_fanin;
          num p.Profile.sw0;
          string_of_int p.Profile.sensitivity;
        ])
      profiles
  in
  print_string
    (Report.Table.render
       ~header:[ "benchmark"; "in"; "out"; "S0"; "depth"; "k_avg"; "sw0"; "s" ]
       ~rows:profile_rows);
  print_newline ();
  print_substitution_check profiles;
  print_newline ();
  print_fig7 profiles;
  print_newline ();
  print_fig8 profiles;
  print_newline ();
  print_headline profiles;
  print_ablation_omega ();
  print_ablation_constructions ();
  print_newline ();
  print_ablation_activity ();
  print_newline ();
  print_voltage_tradeoff ();
  print_newline ();
  print_crossovers profiles;
  print_newline ();
  print_hardening ();
  print_newline ();
  print_sequential ();
  print_newline ();
  print_minimizer_ablation ();
  print_newline ();
  print_glitch ();
  print_newline ();
  print_noisy_sequential ();
  print_newline ()
