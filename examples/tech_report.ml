(* Technology report: what do the normalized bounds mean in joules?

   The bounds pipeline answers "a fault-tolerant rca8 costs at least
   1.38x the error-free energy at eps = 1%" — a ratio. A technology
   pack turns the baseline into absolute numbers: map every gate kind
   to its switching energy, leakage power, area and delay, weight the
   switching energies by simulated activity, integrate leakage over
   the critical path, and re-express Corollary 2's bound in joules.

   The same report under two packs shows why the paper's bounds bite
   hardest exactly where nanodevices live: the hypothetical nanodev
   pack switches ~50x cheaper than 55nm CMOS but leaks so heavily that
   its energy is leakage-dominated — and its intrinsic device-error
   rate floors every requested epsilon at 2%.

   Run with: dune exec examples/tech_report.exe *)

let () =
  (* 1. The circuit: the suite's 8-bit ripple-carry adder, mapped onto
     the max-fanin-3 library exactly as `nanobound analyze` does. *)
  let rca8 =
    match Nano_circuits.Suite.find "rca8" with
    | Some entry -> entry.Nano_circuits.Suite.build ()
    | None -> assert false
  in
  let mapped = Nano_synth.Script.rugged_lite ~max_fanin:3 rca8 in
  (* The profile's pinned activity run also hands out its per-node
     one-counts: the activities every report below weights its
     switching energies by, so no report simulates again. *)
  let profile, counts = Nano_bounds.Profile.of_netlist_counted mapped in
  let node_activity = Nano_sim.Activity.node_activity_of_counts counts in

  (* 2. The normalized view: Corollary 2's E/E0 at the paper's grid. *)
  Format.printf "profile: %a@.@." Nano_bounds.Profile.pp profile;

  (* 3. The absolute view, one report per pack. Both built-ins ship
     with the library; `nanobound analyze rca8 --tech <name>` prints
     the same table. *)
  let reports =
    List.map
      (fun pack ->
        Nano_tech.Report.analyze ~node_activity ~pack ~profile mapped)
      Nano_tech.Builtin.all
  in
  List.iter (fun r -> Format.printf "%a@.@." Nano_tech.Report.pp r) reports;

  (* 4. The punchline: joules per (reliable) addition under each pack,
     at the paper's headline operating point eps = delta = 1%. *)
  List.iter
    (fun r ->
      match
        List.find_opt
          (fun b -> b.Nano_tech.Report.epsilon = 0.01)
          r.Nano_tech.Report.bounds
      with
      | Some b ->
        Printf.printf
          "%-8s total %.4g J, leakage share %.3f, fault-tolerant bound \
           >= %.4g J (eff eps %g)\n"
          r.Nano_tech.Report.pack_name r.Nano_tech.Report.total_j
          r.Nano_tech.Report.leakage_share b.Nano_tech.Report.bound_energy_j
          b.Nano_tech.Report.effective_epsilon
      | None -> ())
    reports
