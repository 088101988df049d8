(* nanobound — command-line front end for the energy-bounds framework.

   Subcommands:
     bounds    closed-form lower bounds for explicit parameters
     analyze   profile a circuit (BLIF file or built-in) and bound it
     tech      list/show/validate technology packs (absolute energies)
     synth     optimize/map a BLIF netlist and write it back out
     inject    Monte-Carlo fault injection on a circuit
     equiv     combinational equivalence (auto | BDD | SAT backends)
     critical  gate observability ranking + analytic reliability
     static    static reliability bounds (no Monte Carlo); criticality
     sweep     figure data series; `sweep voters' voter-class trade study
     lint      static analysis: structural + dataflow diagnostics
     suite     list built-in benchmark circuits
     serve     persistent evaluation daemon (newline-delimited JSON)
     request   send requests to a running daemon *)

open Cmdliner

let num = Nano_report.Report.Table.number

let json_line v = print_endline (Nano_util.Json.to_string v)

(* ------------------------------------------------------------------ *)
(* Shared arguments.                                                    *)
(* ------------------------------------------------------------------ *)

(* An int converter admitting only values >= [lo], so an out-of-range
   count is a usage error before any work starts. *)
let int_at_least ~expected lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok _ -> Error (`Msg ("expected " ^ expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let positive_int = int_at_least ~expected:"a positive integer" 1

(* A float converter admitting only [valid] values, so an out-of-domain
   parameter is a usage error before any work starts. *)
let float_in ~domain valid =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when valid x -> Ok x
    | Ok _ -> Error (`Msg ("expected a value in " ^ domain))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let epsilon_info =
  let doc = "Device (gate) error probability, in [0, 1/2]." in
  Arg.info [ "e"; "epsilon" ] ~docv:"EPS" ~doc

(* Plain floats where the command reports the domain itself: bounds
   and lint diagnose it, static and sweep voters exit 2. *)
let epsilon_arg = Arg.(value & opt float 0.01 & epsilon_info)

(* inject and critical: any rate the noise model admits, 0 included. *)
let noise_epsilon_arg =
  Arg.(
    value
    & opt (float_in ~domain:"[0, 1/2]" (fun e -> e >= 0. && e <= 0.5)) 0.01
    & epsilon_info)

let delta_info =
  let doc = "Output error budget delta, in [0, 1/2)." in
  Arg.info [ "d"; "delta" ] ~docv:"DELTA" ~doc

let delta_arg = Arg.(value & opt float 0.01 & delta_info)

let leakage_info =
  let doc = "Leakage share of the error-free baseline energy, in [0, 1)." in
  Arg.info [ "leakage-share" ] ~docv:"SHARE" ~doc

let leakage_arg = Arg.(value & opt float 0.5 & leakage_info)

let jobs_arg =
  let doc =
    "Worker domains for parallel evaluation. Results are bit-identical \
     for every job count; the default uses all recommended cores."
  in
  Arg.(
    value
    & opt positive_int (Nano_util.Par.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let format_arg =
  let doc =
    "Output format: `table' for the human-readable rendering, `json' \
     for one line of JSON carrying the same record the evaluation \
     service protocol uses (see `nanobound serve')."
  in
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "format" ] ~docv:"FMT" ~doc)

let circuit_arg =
  let doc =
    "Circuit to analyze: either a BLIF file path or the name of a built-in \
     benchmark (see `nanobound suite')."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let load_circuit spec =
  match Nano_circuits.Suite.find spec with
  | Some entry -> Ok (entry.Nano_circuits.Suite.build ())
  | None ->
    if Sys.file_exists spec then begin
      match Nano_blif.Blif.parse_file spec with
      | Ok netlist -> Ok netlist
      | Error e -> Error (Format.asprintf "%s: %a" spec Nano_blif.Blif.pp_error e)
      | exception Sys_error msg ->
        (* Opening names the path in its message; reading does not. *)
        if String.starts_with ~prefix:(spec ^ ": ") msg then Error msg
        else Error (spec ^ ": " ^ msg)
    end
    else
      Error
        (Printf.sprintf
           "%s: not a built-in benchmark and no such file (try `nanobound \
            suite')"
           spec)

(* Technology packs resolve like circuits: built-in name first, then a
   JSON file. Warnings go to stderr and the pack still loads; errors
   are fatal. *)
let load_tech spec =
  match Nano_tech.Builtin.find spec with
  | Some pack -> Ok pack
  | None ->
    if Sys.file_exists spec then begin
      match Nano_tech.Loader.load_file spec with
      | Error msg -> Error [ Printf.sprintf "%s: %s" spec msg ]
      | Ok { Nano_tech.Loader.pack = Some pack; diagnostics } ->
        List.iter
          (fun d ->
            Format.eprintf "%s: %a@." spec Nano_lint.Diagnostic.pp d)
          diagnostics;
        Ok pack
      | Ok { Nano_tech.Loader.pack = None; diagnostics } ->
        Error
          (List.map
             (fun d -> Format.asprintf "%s: %a" spec Nano_lint.Diagnostic.pp d)
             diagnostics)
    end
    else
      Error
        [
          Printf.sprintf
            "%s: not a built-in technology pack and no such file (try \
             `nanobound tech')"
            spec;
        ]

let tech_arg =
  let doc =
    "Technology pack for an absolute energy/area/delay report next to \
     the normalized bounds: a built-in pack name (see `nanobound tech') \
     or a JSON pack file."
  in
  Arg.(value & opt (some string) None & info [ "tech" ] ~docv:"PACK" ~doc)

(* ------------------------------------------------------------------ *)
(* bounds                                                               *)
(* ------------------------------------------------------------------ *)

let bounds_cmd =
  let run epsilon delta fanin sensitivity size inputs sw0 leakage_share0
      explain format =
    let scenario =
      {
        Nano_bounds.Metrics.epsilon;
        delta;
        fanin;
        sensitivity;
        error_free_size = size;
        inputs;
        sw0;
        leakage_share0;
      }
    in
    if not (Nano_bounds.Metrics.scenario_valid scenario) then begin
      prerr_endline "error: parameters outside the theorems' domain";
      exit 1
    end;
    if explain && format = `Table then
      print_string (Nano_bounds.Metrics.explain scenario);
    let b = Nano_bounds.Metrics.evaluate scenario in
    match format with
    | `Json -> json_line (Nano_service.Protocol.bounds_to_json b)
    | `Table ->
      let opt = function Some v -> num v | None -> "infeasible" in
      print_string
        (Nano_report.Report.Table.render ~header:[ "metric"; "lower bound" ]
           ~rows:
             [
               [ "size / S0"; num b.Nano_bounds.Metrics.size_ratio ];
               [ "switching activity ratio"; num b.Nano_bounds.Metrics.activity_ratio ];
               [ "switching energy / E0"; num b.Nano_bounds.Metrics.switching_energy_ratio ];
               [ "total energy / E0"; num b.Nano_bounds.Metrics.energy_ratio ];
               [ "leakage ratio change (Thm 3)"; num b.Nano_bounds.Metrics.leakage_ratio_change ];
               [ "delay / D0"; opt b.Nano_bounds.Metrics.delay_ratio ];
               [ "energy-delay / ED0"; opt b.Nano_bounds.Metrics.energy_delay_ratio ];
               [ "average power / P0"; opt b.Nano_bounds.Metrics.average_power_ratio ];
             ])
  in
  let fanin =
    Arg.(value & opt int 2 & info [ "k"; "fanin" ] ~docv:"K" ~doc:"Gate fanin.")
  in
  let sensitivity =
    Arg.(value & opt int 10 & info [ "s"; "sensitivity" ] ~docv:"S"
           ~doc:"Boolean sensitivity of the function.")
  in
  let size =
    Arg.(value & opt int 21 & info [ "size" ] ~docv:"S0"
           ~doc:"Error-free implementation size in gates.")
  in
  let inputs =
    Arg.(value & opt int 10 & info [ "n"; "inputs" ] ~docv:"N"
           ~doc:"Number of (relevant) primary inputs.")
  in
  let sw0 =
    Arg.(value & opt float 0.5 & info [ "sw0" ] ~docv:"SW"
           ~doc:"Error-free average gate switching activity.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print the step-by-step derivation before the table.")
  in
  let doc = "Closed-form lower bounds for explicit parameters" in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(
      const run $ epsilon_arg $ delta_arg $ fanin $ sensitivity $ size
      $ inputs $ sw0 $ leakage_arg $ explain $ format_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run spec delta leakage_share0 epsilons no_map glitch measure vectors
      tech static_activity jobs format =
    let tech =
      match tech with
      | None -> None
      | Some tspec -> (
        match load_tech tspec with
        | Ok pack -> Some pack
        | Error msgs ->
          List.iter prerr_endline msgs;
          exit 1)
    in
    match load_circuit spec with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok circuit ->
      let mapped =
        if no_map then circuit
        else Nano_synth.Script.rugged_lite ~max_fanin:3 circuit
      in
      let lint_report = Nano_lint.Lint.run_netlist circuit in
      let profile = Nano_bounds.Profile.of_netlist ~jobs mapped in
      (* With --measure, ONE batched Monte-Carlo pass covers the whole ε
         grid (lanes coupled by common random numbers, jobs sharding
         vectors); otherwise the rows stay closed-form. *)
      let measured =
        if measure then
          Some
            (Nano_bounds.Benchmark_eval.measured_grid ~deltas:[ delta ]
               ~leakage_share0 ~epsilons ~vectors ~jobs ~profile mapped)
        else None
      in
      let rows =
        match measured with
        | Some mrows ->
          List.map (fun m -> m.Nano_bounds.Benchmark_eval.row) mrows
        | None ->
          Nano_util.Par.map_list ~jobs
            (fun epsilon ->
              Nano_bounds.Benchmark_eval.evaluate_profile ~delta
                ~leakage_share0 profile ~epsilon)
            epsilons
      in
      let glitch_factor =
        if glitch then
          let p = Nano_sim.Glitch.unit_delay ~pairs:2048 mapped in
          Some p.Nano_sim.Glitch.glitch_factor
        else None
      in
      (* Same inputs as the service's tech block (mapped netlist +
         cached-profile equivalent), so the JSON below is byte-identical
         to a service reply for the same request. *)
      let tech_report =
        Option.map
          (fun pack ->
            (* --static-activity swaps the pinned 4096-vector activity
               estimate for the static analyzer's interval midpoints
               (epsilon 0: the report weights error-free switching). *)
            let node_activity =
              if static_activity then
                Some
                  (Nano_static.Static.node_activity_estimate
                     (Nano_static.Static.analyze ~epsilon:0. mapped))
              else None
            in
            Nano_tech.Report.analyze ~delta ~epsilons ?node_activity ~pack
              ~profile mapped)
          tech
      in
      (match format with
      | `Json ->
        (* The exact record the service's analyze reply carries, so the
           two surfaces stay round-trippable through one codepath. *)
        let open Nano_util.Json in
        let row_list =
          match measured with
          | Some mrows ->
            List
              (Stdlib.List.map Nano_service.Protocol.measured_row_to_json
                 mrows)
          | None ->
            List (Stdlib.List.map Nano_service.Protocol.row_to_json rows)
        in
        let base =
          [
            ("profile", Nano_service.Protocol.profile_to_json profile);
            ("rows", row_list);
          ]
        in
        (* Tech block after "rows", then the same pre-flight attachment
           (and placement) as the service's analyze reply: each only
           present when requested / when the linter has something to
           report. *)
        let tech_block =
          match tech_report with
          | Some r -> [ ("tech", Nano_tech.Report.to_json r) ]
          | None -> []
        in
        let lint =
          match Nano_lint.Lint.preflight_json lint_report with
          | Some pj -> [ ("lint", pj) ]
          | None -> []
        in
        let extra =
          match glitch_factor with
          | Some g -> [ ("glitch_factor", Float g) ]
          | None -> []
        in
        json_line (Obj (base @ tech_block @ lint @ extra))
      | `Table ->
        let lint_errors = Nano_lint.Lint.errors lint_report in
        let lint_warnings = Nano_lint.Lint.warnings lint_report in
        if lint_errors + lint_warnings > 0 then
          Format.eprintf
            "pre-flight lint: %d error(s), %d warning(s) (run `nanobound \
             lint %s' for details)@."
            lint_errors lint_warnings spec;
        Format.printf "%a@.@." Nano_bounds.Profile.pp profile;
        (match glitch_factor with
        | Some g ->
          Printf.printf
            "glitch factor (unit-delay vs settled switching): %s\n\n"
            (num g)
        | None -> ());
        let opt = function Some v -> num v | None -> "infeasible" in
        (match measured with
        | Some mrows ->
          print_string
            (Nano_report.Report.Table.render
               ~header:
                 [
                   "eps"; "E/E0"; "D/D0"; "P/P0"; "ED/ED0"; "measured dhat";
                   "measured sw";
                 ]
               ~rows:
                 (List.map
                    (fun m ->
                      let r = m.Nano_bounds.Benchmark_eval.row in
                      [
                        num r.Nano_bounds.Benchmark_eval.epsilon;
                        num r.Nano_bounds.Benchmark_eval.energy_ratio;
                        opt r.Nano_bounds.Benchmark_eval.delay_ratio;
                        opt r.Nano_bounds.Benchmark_eval.average_power_ratio;
                        opt r.Nano_bounds.Benchmark_eval.energy_delay_ratio;
                        num m.Nano_bounds.Benchmark_eval.measured_delta;
                        num m.Nano_bounds.Benchmark_eval.measured_activity;
                      ])
                    mrows))
        | None ->
          print_string
            (Nano_report.Report.Table.render
               ~header:[ "eps"; "E/E0"; "D/D0"; "P/P0"; "ED/ED0" ]
               ~rows:
                 (List.map
                    (fun r ->
                      [
                        num r.Nano_bounds.Benchmark_eval.epsilon;
                        num r.Nano_bounds.Benchmark_eval.energy_ratio;
                        opt r.Nano_bounds.Benchmark_eval.delay_ratio;
                        opt r.Nano_bounds.Benchmark_eval.average_power_ratio;
                        opt r.Nano_bounds.Benchmark_eval.energy_delay_ratio;
                      ])
                    rows)));
        (match tech_report with
        | Some r -> Format.printf "@.%a@." Nano_tech.Report.pp r
        | None -> ()))
  in
  let module Metrics = Nano_bounds.Metrics in
  let delta =
    Arg.(
      value
      & opt (float_in ~domain:"[0, 1/2)" Metrics.delta_valid) 0.01
      & delta_info)
  in
  let leakage_share =
    Arg.(
      value
      & opt (float_in ~domain:"[0, 1)" Metrics.leakage_share_valid) 0.5
      & leakage_info)
  in
  let epsilons =
    Arg.(
      value
      & opt
          (list (float_in ~domain:"(0, 1/2]" Metrics.epsilon_valid))
          Nano_bounds.Benchmark_eval.paper_epsilons
      & info [ "epsilons" ] ~docv:"E1,E2,..."
          ~doc:"Device error levels to evaluate, each in (0, 1/2].")
  in
  let no_map =
    Arg.(value & flag
         & info [ "no-map" ]
             ~doc:"Skip the rugged_lite optimization/mapping step.")
  in
  let glitch =
    Arg.(value & flag
         & info [ "glitch" ]
             ~doc:"Also measure the unit-delay glitch factor.")
  in
  let measure =
    Arg.(value & flag
         & info [ "measure" ]
             ~doc:"Cross-check each row with a batched Monte-Carlo run: \
                   one simulation pass covers the whole epsilon grid and \
                   reports the measured output error and switching \
                   activity alongside the analytic bounds.")
  in
  let vectors =
    Arg.(value & opt positive_int 4096
         & info [ "vectors" ] ~docv:"N"
             ~doc:"Random input vectors for $(b,--measure).")
  in
  let static_activity =
    Arg.(
      value & flag
      & info [ "static-activity" ]
          ~doc:
            "With $(b,--tech): weight switching energy by the static \
             analyzer's activity estimate (microseconds, no \
             simulation) instead of the pinned 4096-vector Monte-Carlo \
             profile.")
  in
  let doc = "Profile a circuit and print its fault-tolerance lower bounds" in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run $ circuit_arg $ delta $ leakage_share $ epsilons $ no_map
      $ glitch $ measure $ vectors $ tech_arg $ static_activity $ jobs_arg
      $ format_arg)

(* ------------------------------------------------------------------ *)
(* tech                                                                 *)
(* ------------------------------------------------------------------ *)

let tech_list_run format =
  match format with
  | `Json ->
    let open Nano_util.Json in
    json_line
      (List
         (Stdlib.List.map
            (fun p ->
              Obj
                [
                  ("name", String p.Nano_tech.Pack.name);
                  ("digest", String (Nano_tech.Pack.digest p));
                  ( "gates",
                    Int (Stdlib.List.length p.Nano_tech.Pack.gates) );
                  ("description", String p.Nano_tech.Pack.description);
                ])
            Nano_tech.Builtin.all))
  | `Table ->
    print_string
      (Nano_report.Report.Table.render
         ~header:[ "name"; "digest"; "gates"; "description" ]
         ~rows:
           (List.map
              (fun p ->
                [
                  p.Nano_tech.Pack.name;
                  Nano_tech.Pack.digest p;
                  string_of_int (List.length p.Nano_tech.Pack.gates);
                  p.Nano_tech.Pack.description;
                ])
              Nano_tech.Builtin.all))

let tech_list_cmd =
  let doc = "List the built-in technology packs" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const tech_list_run $ format_arg)

let tech_show_cmd =
  let run spec format =
    match load_tech spec with
    | Error msgs ->
      List.iter prerr_endline msgs;
      exit 1
    | Ok pack -> (
      match format with
      | `Json -> json_line (Nano_tech.Pack.to_json pack)
      | `Table ->
        Printf.printf "%s: %s\n" pack.Nano_tech.Pack.name
          pack.Nano_tech.Pack.description;
        Printf.printf "digest            %s\n" (Nano_tech.Pack.digest pack);
        Printf.printf "vdd               %g V\n" pack.Nano_tech.Pack.vdd;
        Printf.printf "wire              %g F/m, %g ohm/m\n"
          pack.Nano_tech.Pack.wire_cap_f_per_m
          pack.Nano_tech.Pack.wire_res_ohm_per_m;
        Printf.printf "clock energy      %g J\n"
          pack.Nano_tech.Pack.clock_energy_j;
        Printf.printf "fanin scale       %g per extra input\n"
          pack.Nano_tech.Pack.fanin_scale;
        Printf.printf "intrinsic epsilon %g\n"
          pack.Nano_tech.Pack.intrinsic_epsilon;
        print_string
          (Nano_report.Report.Table.render
             ~header:[ "kind"; "energy_j"; "leakage_w"; "area_m2"; "delay_s" ]
             ~rows:
               (List.map
                  (fun (kind, e) ->
                    [
                      Nano_netlist.Gate.name kind;
                      Printf.sprintf "%g" e.Nano_tech.Pack.energy_j;
                      Printf.sprintf "%g" e.Nano_tech.Pack.leakage_w;
                      Printf.sprintf "%g" e.Nano_tech.Pack.area_m2;
                      Printf.sprintf "%g" e.Nano_tech.Pack.delay_s;
                    ])
                  pack.Nano_tech.Pack.gates)))
  in
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PACK"
          ~doc:"Built-in pack name or JSON pack file to show.")
  in
  let doc = "Show one technology pack (canonical JSON with --format json)" in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ spec $ format_arg)

let tech_validate_cmd =
  let run builtins files =
    if (not builtins) && files = [] then begin
      prerr_endline "tech validate: give pack files and/or --builtins";
      exit 2
    end;
    let failed = ref false in
    if builtins then
      List.iter
        (fun p ->
          match Nano_tech.Loader.validate p with
          | [] ->
            Printf.printf "builtin %s: ok (%d gates)\n"
              p.Nano_tech.Pack.name
              (List.length p.Nano_tech.Pack.gates)
          | ds ->
            failed := true;
            List.iter
              (fun d ->
                Format.printf "builtin %s: %a@." p.Nano_tech.Pack.name
                  Nano_lint.Diagnostic.pp d)
              ds)
        Nano_tech.Builtin.all;
    List.iter
      (fun file ->
        match Nano_tech.Loader.load_file file with
        | Error msg ->
          failed := true;
          Printf.printf "%s: %s\n" file msg
        | Ok { Nano_tech.Loader.pack; diagnostics } ->
          if pack = None then failed := true;
          List.iter
            (fun d ->
              Format.printf "%s: %a@." file Nano_lint.Diagnostic.pp d)
            diagnostics;
          (match pack with
          | Some p ->
            Printf.printf "%s: ok (pack %s, %d gates)\n" file
              p.Nano_tech.Pack.name
              (List.length p.Nano_tech.Pack.gates)
          | None -> ()))
      files;
    if !failed then exit 1
  in
  let builtins =
    Arg.(value & flag
         & info [ "builtins" ]
             ~doc:"Also validate every built-in pack.")
  in
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:"JSON pack files to validate.")
  in
  let doc = "Validate technology pack files (exit 1 on any error)" in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ builtins $ files)

let tech_cmd =
  let doc = "Inspect and validate technology packs" in
  Cmd.group
    ~default:Term.(const tech_list_run $ format_arg)
    (Cmd.info "tech" ~doc)
    [ tech_list_cmd; tech_show_cmd; tech_validate_cmd ]

(* ------------------------------------------------------------------ *)
(* synth                                                                *)
(* ------------------------------------------------------------------ *)

let synth_cmd =
  let run spec output flow max_fanin =
    match load_circuit spec with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok circuit ->
      let before_size = Nano_netlist.Netlist.size circuit in
      let before_depth = Nano_netlist.Netlist.depth circuit in
      let mapped =
        match flow with
        | "rugged" -> Nano_synth.Script.rugged_lite ~max_fanin circuit
        | "map" -> Nano_synth.Script.map_only ~max_fanin circuit
        | "nand" -> Nano_synth.Script.nand_flow circuit
        | other ->
          prerr_endline ("unknown flow: " ^ other ^ " (rugged|map|nand)");
          exit 1
      in
      (match Nano_synth.Equiv.check circuit mapped with
      | Nano_synth.Equiv.Equivalent -> ()
      | Nano_synth.Equiv.Counterexample _ ->
        prerr_endline "internal error: synthesis changed the function";
        exit 2);
      Printf.printf "%s: size %d -> %d, depth %d -> %d, max fanin %d\n"
        (Nano_netlist.Netlist.name mapped) before_size
        (Nano_netlist.Netlist.size mapped)
        before_depth
        (Nano_netlist.Netlist.depth mapped)
        (Nano_netlist.Netlist.max_fanin mapped);
      match output with
      | Some path ->
        Nano_blif.Blif.write_file path mapped;
        Printf.printf "written to %s\n" path
      | None -> ()
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the result as BLIF.")
  in
  let flow =
    Arg.(value & opt string "rugged"
         & info [ "flow" ] ~docv:"FLOW"
             ~doc:"Synthesis flow: rugged, map or nand.")
  in
  let max_fanin =
    Arg.(value & opt (int_at_least ~expected:"an integer >= 2" 2) 3
         & info [ "max-fanin" ] ~docv:"K"
             ~doc:"Library fanin bound, at least 2.")
  in
  let doc = "Optimize and map a netlist (verified-equivalent)" in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(const run $ circuit_arg $ output $ flow $ max_fanin)

(* ------------------------------------------------------------------ *)
(* inject                                                               *)
(* ------------------------------------------------------------------ *)

let inject_cmd =
  let run spec epsilon vectors seed jobs =
    match load_circuit spec with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok circuit ->
      let sim =
        Nano_faults.Noisy_sim.simulate ~seed ~vectors ~jobs ~epsilon circuit
      in
      Printf.printf "circuit %s, eps = %g, %d vectors\n"
        (Nano_netlist.Netlist.name circuit)
        epsilon sim.Nano_faults.Noisy_sim.vectors;
      Printf.printf "P(all outputs correct) = %s\n"
        (num (Nano_faults.Noisy_sim.output_reliability sim));
      Printf.printf "empirical delta = %s\n"
        (num sim.Nano_faults.Noisy_sim.any_output_error);
      Printf.printf "average noisy gate activity = %s\n"
        (num sim.Nano_faults.Noisy_sim.average_gate_activity);
      print_string
        (Nano_report.Report.Table.render ~header:[ "output"; "error rate" ]
           ~rows:
             (List.map
                (fun (name, e) -> [ name; num e ])
                sim.Nano_faults.Noisy_sim.per_output_error))
  in
  let vectors =
    Arg.(value & opt positive_int 16384
         & info [ "vectors" ] ~docv:"N" ~doc:"Number of random vectors.")
  in
  let seed =
    Arg.(value & opt int 0xfa17 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let doc = "Monte-Carlo fault injection (von Neumann error model)" in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(
      const run $ circuit_arg $ noise_epsilon_arg $ vectors $ seed $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* equiv                                                                *)
(* ------------------------------------------------------------------ *)

let equiv_cmd =
  let run spec_a spec_b backend =
    match load_circuit spec_a, load_circuit spec_b with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      exit 1
    | Ok a, Ok b ->
      (* interface mismatch is a user error, not a crash *)
      (match
         ( List.sort compare (Nano_netlist.Netlist.input_names a),
           List.sort compare (Nano_netlist.Netlist.input_names b) )
       with
      | ia, ib when ia <> ib ->
        prerr_endline "error: input interfaces differ";
        exit 2
      | _ -> ());
      (match
         ( List.sort compare (List.map fst (Nano_netlist.Netlist.outputs a)),
           List.sort compare (List.map fst (Nano_netlist.Netlist.outputs b)) )
       with
      | oa, ob when oa <> ob ->
        prerr_endline "error: output interfaces differ";
        exit 2
      | _ -> ());
      let report verdict cex =
        match verdict with
        | `Equivalent ->
          print_endline "EQUIVALENT";
          exit 0
        | `Different ->
          print_endline "DIFFERENT";
          List.iter (fun (nm, v) -> Printf.printf "  %s = %b\n" nm v) cex;
          exit 1
        | `Unknown ->
          print_endline "UNKNOWN (budget exhausted)";
          exit 2
      in
      (match backend with
      | "auto" -> begin
        match Nano_synth.Equiv.check a b with
        | Nano_synth.Equiv.Equivalent -> report `Equivalent []
        | Nano_synth.Equiv.Counterexample cex -> report `Different cex
      end
      | "bdd" -> begin
        match Nano_synth.Equiv.bdd a b with
        | Some Nano_synth.Equiv.Equivalent -> report `Equivalent []
        | Some (Nano_synth.Equiv.Counterexample cex) -> report `Different cex
        | None -> report `Unknown []
      end
      | "sat" -> begin
        match Nano_sat.Cnf.equivalent a b with
        | `Equivalent -> report `Equivalent []
        | `Counterexample cex -> report `Different cex
        | `Unknown -> report `Unknown []
      end
      | other ->
        prerr_endline ("unknown backend: " ^ other ^ " (auto|bdd|sat)");
        exit 2)
  in
  let spec_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT_A")
  in
  let spec_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CIRCUIT_B")
  in
  let backend =
    Arg.(value & opt string "auto"
         & info [ "backend" ] ~docv:"B"
             ~doc:"Decision procedure: auto, bdd or sat.")
  in
  let doc = "Check combinational equivalence of two circuits" in
  Cmd.v (Cmd.info "equiv" ~doc) Term.(const run $ spec_a $ spec_b $ backend)

(* ------------------------------------------------------------------ *)
(* critical                                                             *)
(* ------------------------------------------------------------------ *)

let critical_cmd =
  let run spec epsilon vectors top =
    match load_circuit spec with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok circuit ->
      let r = Nano_faults.Criticality.analyze ~vectors circuit in
      let ranked = Nano_faults.Criticality.ranked_gates circuit r in
      let rows =
        List.filteri (fun i _ -> i < top) ranked
        |> List.map (fun id ->
               let info = Nano_netlist.Netlist.info circuit id in
               [
                 string_of_int id;
                 Nano_netlist.Gate.name info.Nano_netlist.Netlist.kind;
                 num r.Nano_faults.Criticality.observability.(id);
               ])
      in
      Printf.printf "most observable gates of %s (%d vectors):\n"
        (Nano_netlist.Netlist.name circuit)
        r.Nano_faults.Criticality.vectors;
      print_string
        (Nano_report.Report.Table.render
           ~header:[ "gate"; "kind"; "observability" ]
           ~rows);
      print_newline ();
      let analytic = Nano_faults.Reliability.analyze ~epsilon circuit in
      Printf.printf "analytic per-output error at eps = %g%s:\n" epsilon
        (if Nano_faults.Reliability.is_tree circuit then " (exact: tree)"
         else " (independence approximation)");
      print_string
        (Nano_report.Report.Table.render ~header:[ "output"; "P(wrong)" ]
           ~rows:
             (List.map
                (fun (name, e) -> [ name; num e ])
                analytic.Nano_faults.Reliability.per_output_error))
  in
  let vectors =
    Arg.(value & opt positive_int 4096
         & info [ "vectors" ] ~docv:"N" ~doc:"Vectors for fault injection.")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K" ~doc:"How many gates to list.")
  in
  let doc = "Rank gates by fault observability; analytic reliability" in
  Cmd.v (Cmd.info "critical" ~doc)
    Term.(const run $ circuit_arg $ noise_epsilon_arg $ vectors $ top)

(* ------------------------------------------------------------------ *)
(* sweep                                                                *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let run (figure, title, x, y) chart jobs format =
    (* The figure names are the subcommands below, all of which the
       service dispatcher knows. *)
    let series = Option.get (Nano_service.Service.sweep_series ~jobs figure) in
    let data =
      List.map
        (fun s -> (s.Nano_bounds.Figures.label, s.Nano_bounds.Figures.points))
        series
    in
    match format with
    | `Json ->
      (* Same encoder as the service's sweep reply, so both surfaces
         emit identical records. *)
      json_line (Nano_service.Protocol.series_to_json data)
    | `Table ->
      if chart then begin
        (* Figure 2's axes include zero; the ε sweeps read best
           log-log. *)
        let x_scale, y_scale =
          if figure = "fig2" then
            (Nano_report.Chart.Linear, Nano_report.Chart.Linear)
          else (Nano_report.Chart.Log, Nano_report.Chart.Log)
        in
        print_string (Nano_report.Chart.render ~x_scale ~y_scale ~title data)
      end
      else
        print_string
          (Nano_report.Report.Series.render ~title ~x_label:x ~y_label:y data)
  in
  let chart =
    Arg.(value & flag
         & info [ "chart" ] ~doc:"Draw an ASCII chart instead of a table.")
  in
  (* One subcommand per figure keeps the historical `sweep fig3`
     spelling working under the command group. *)
  let figure_cmds =
    List.map
      (fun ((fig, title, _, _) as figure) ->
        Cmd.v (Cmd.info fig ~doc:title)
          Term.(const run $ const figure $ chart $ jobs_arg $ format_arg))
      [
        ("fig2", "Figure 2: noisy switching activity", "sw(y)", "sw(z)");
        ("fig3", "Figure 3: minimum redundancy factor", "eps", "size ratio");
        ("fig4", "Figure 4: leakage/switching ratio", "eps", "W/W0");
        ("fig5", "Figure 5: delay and energy-delay", "eps", "ratio");
        ("fig6", "Figure 6: average power", "eps", "P/P0");
        ("omega", "Ablation: omega models", "eps", "size ratio");
        ( "delta", "Measured output error (batched Monte-Carlo)", "eps",
          "delta-hat" );
      ]
  in
  (* Voter-class trade study over a selectively hardened circuit:
     x-axis is the voter-device ε, the series are the hardened
     circuit's measured any-output error next to the unhardened
     baseline at the same seed. *)
  let voters_cmd =
    let run spec fraction gate_epsilon voter_epsilons ranking vectors seed
        input_probability jobs format =
      match load_circuit spec with
      | Error msg ->
        prerr_endline msg;
        exit 3
      | Ok netlist -> (
        match
          let hardened =
            match ranking with
            | `Static ->
              (* Deterministic criticality ranking from the static
                 analyzer — no Monte Carlo, so the gate selection is
                 seed-independent. *)
              Nano_redundancy.Selective.harden_top_static ~input_probability
                ~epsilon:gate_epsilon ~fraction netlist
            | `Mc ->
              Nano_redundancy.Selective.harden_top ~seed ~vectors ~fraction
                netlist
          in
          let voter_epsilons = Array.of_list voter_epsilons in
          let results =
            Nano_redundancy.Selective.sweep_voter_epsilons ~seed ~vectors
              ~input_probability ~jobs hardened ~gate_epsilon ~voter_epsilons
          in
          let baseline =
            (Nano_faults.Noisy_sim.simulate ~seed ~vectors ~input_probability
               ~jobs ~epsilon:gate_epsilon netlist)
              .Nano_faults.Noisy_sim.any_output_error
          in
          (hardened, voter_epsilons, results, baseline)
        with
        | exception Invalid_argument msg ->
          prerr_endline ("sweep voters: " ^ msg);
          exit 2
        | hardened, voter_epsilons, results, baseline ->
          let points f =
            Array.to_list
              (Array.mapi (fun i r -> (voter_epsilons.(i), f r)) results)
          in
          let data =
            [
              ( "hardened any-output error",
                points (fun r -> r.Nano_faults.Noisy_sim.any_output_error) );
              ( "unhardened baseline",
                Array.to_list
                  (Array.map (fun e -> (e, baseline)) voter_epsilons) );
            ]
          in
          let size_overhead =
            Nano_redundancy.Selective.size_overhead ~original:netlist
              ~hardened
          in
          let voters =
            List.length hardened.Nano_redundancy.Selective.voters
          in
          let ranking_name =
            match ranking with `Static -> "static" | `Mc -> "mc"
          in
          (match format with
          | `Json ->
            (* The series reuse the service protocol's sweep encoder;
               the envelope adds the hardening facts the table prints
               as its header line. *)
            json_line
              (Nano_util.Json.Obj
                 [
                   ("circuit", Nano_util.Json.String (Nano_netlist.Netlist.name netlist));
                   ("fraction", Nano_util.Json.Float fraction);
                   ("gate_epsilon", Nano_util.Json.Float gate_epsilon);
                   ("ranking", Nano_util.Json.String ranking_name);
                   ("voters", Nano_util.Json.Int voters);
                   ("size_overhead", Nano_util.Json.Float size_overhead);
                   ("series", Nano_service.Protocol.series_to_json data);
                 ])
          | `Table ->
            Printf.printf
              "hardened %s: fraction %g (%s ranking), %d voters, size \
               overhead %.3fx\n"
              (Nano_netlist.Netlist.name netlist)
              fraction ranking_name voters size_overhead;
            print_string
              (Nano_report.Report.Series.render
                 ~title:
                   (Printf.sprintf
                      "Voter-class sweep (gate eps = %g, %d vectors)"
                      gate_epsilon vectors)
                 ~x_label:"voter eps" ~y_label:"any-output error" data)))
    in
    let fraction =
      Arg.(
        value & opt float 0.1
        & info [ "fraction" ] ~docv:"F"
            ~doc:"Fraction of logic gates to harden, in [0, 1].")
    in
    let voter_epsilons =
      Arg.(
        value
        & opt (list float) [ 0.0001; 0.001; 0.005; 0.01 ]
        & info [ "voter-epsilons" ] ~docv:"EPS,..."
            ~doc:
              "Comma-separated voter-device error probabilities: one \
               common-random-numbers simulation lane per value.")
    in
    let ranking =
      Arg.(
        value
        & opt (enum [ ("static", `Static); ("mc", `Mc) ]) `Static
        & info [ "ranking" ] ~docv:"RANKING"
            ~doc:
              "Gate-selection ranking: `static' for the deterministic \
               static error-criticality order (see `nanobound static'), \
               `mc' for Monte-Carlo fault-injection observability.")
    in
    let vectors =
      Arg.(
        value & opt positive_int 8192
        & info [ "vectors" ] ~docv:"N"
            ~doc:"Random input vectors per simulation lane.")
    in
    let seed =
      Arg.(value & opt int 0xfa17 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
    in
    let input_probability =
      Arg.(
        value & opt float 0.5
        & info [ "input-probability" ] ~docv:"P"
            ~doc:"Pr(input = 1) for every primary input.")
    in
    let doc = "Sweep voter-device error classes over a hardened circuit" in
    Cmd.v (Cmd.info "voters" ~doc)
      Term.(
        const run $ circuit_arg $ fraction $ epsilon_arg $ voter_epsilons
        $ ranking $ vectors $ seed $ input_probability $ jobs_arg $ format_arg)
  in
  let doc =
    "Print the data series behind the paper's figures; sweep voter classes"
  in
  Cmd.group (Cmd.info "sweep" ~doc) (figure_cmds @ [ voters_cmd ])

(* ------------------------------------------------------------------ *)
(* static                                                               *)
(* ------------------------------------------------------------------ *)

let static_cmd =
  let run spec epsilon input_probability cone_budget tech top strict format =
    match load_circuit spec with
    | Error msg ->
      prerr_endline msg;
      exit 3
    | Ok netlist ->
      let epsilon =
        match tech with
        | None -> epsilon
        | Some spec -> (
          match load_tech spec with
          | Error msgs ->
            List.iter prerr_endline msgs;
            exit 3
          | Ok pack ->
            (* Same floor the tech report applies to its bound rows. *)
            Nano_tech.Pack.effective_epsilon pack epsilon)
      in
      (match
         Nano_static.Static.analyze ~input_probability ~cone_budget ~epsilon
           netlist
       with
      | exception Invalid_argument msg ->
        prerr_endline ("static: " ^ msg);
        exit 2
      | analysis ->
        (match format with
        | `Json ->
          json_line (Nano_static.Static.to_json ~top analysis netlist)
        | `Table ->
          Format.printf "%a" (Nano_static.Static.pp ~top) (analysis, netlist));
        let diags = Nano_static.Static.diagnostics analysis netlist in
        let errors =
          List.exists
            (fun d -> d.Nano_lint.Diagnostic.severity = Nano_lint.Diagnostic.Error)
            diags
        in
        if errors || (strict && diags <> []) then exit 1)
  in
  let input_probability =
    Arg.(
      value & opt float 0.5
      & info [ "input-probability" ] ~docv:"P"
          ~doc:"Pr(input = 1) for every primary input, in [0, 1].")
  in
  let cone_budget =
    Arg.(
      value
      & opt int Nano_static.Static.default_cone_budget
      & info [ "cone-budget" ] ~docv:"NODES"
          ~doc:
            "BDD size ceiling for exact signal probabilities; cones \
             past it fall back to interval propagation.")
  in
  let top =
    Arg.(
      value & opt int 16
      & info [ "top" ] ~docv:"K"
          ~doc:"How many gates of the criticality ranking to print.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero on warnings too, not just errors.")
  in
  let doc =
    "Static reliability bounds: error intervals without Monte Carlo"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the dataflow static analyzer: exact signal probabilities \
         (shared ROBDD under a cone budget, interval fallback past it), \
         per-output error-probability intervals under the von Neumann \
         per-gate channel (exact on tree regions, conservative across \
         reconvergent fanout), a static switching-activity estimate, \
         and the error-criticality ranking that seeds selective \
         hardening (`nanobound sweep voters').";
      `P
        "A $(b,vacuous-bound) warning marks an output whose interval \
         no longer excludes a fair coin; $(b,bound-collapse) marks the \
         frontier gate where the bound gave out. Exit status is 1 when \
         diagnostics carry errors (with $(b,--strict), warnings too), \
         3 when the circuit cannot be read.";
    ]
  in
  Cmd.v (Cmd.info "static" ~doc ~man)
    Term.(
      const run $ circuit_arg $ epsilon_arg $ input_probability $ cone_budget
      $ tech_arg $ top $ strict $ format_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let run specs max_fanin epsilon delta strict format =
    let options = { Nano_lint.Lint.max_fanin; epsilon; delta } in
    let worst = ref `Clean in
    List.iter
      (fun spec ->
        let report =
          match Nano_circuits.Suite.find spec with
          | Some entry ->
            Nano_lint.Lint.run_netlist ~options
              (entry.Nano_circuits.Suite.build ())
          | None ->
            if Sys.file_exists spec then begin
              match Nano_lint.Lint.run_blif_file ~options spec with
              | Ok report -> report
              | Error msg ->
                prerr_endline (spec ^ ": " ^ msg);
                exit 3
            end
            else begin
              prerr_endline
                (Printf.sprintf
                   "%s: not a built-in benchmark and no such file (try \
                    `nanobound suite')"
                   spec);
              exit 3
            end
        in
        (match format with
        | `Json -> json_line (Nano_lint.Lint.report_to_json report)
        | `Table -> Format.printf "%a" Nano_lint.Lint.pp_report report);
        if Nano_lint.Lint.errors report > 0 then worst := `Errors
        else if Nano_lint.Lint.warnings report > 0 && !worst = `Clean then
          worst := `Warnings)
      specs;
    match !worst with
    | `Errors -> exit 1
    | `Warnings when strict -> exit 1
    | _ -> ()
  in
  let specs =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"CIRCUIT"
          ~doc:
            "Circuits to lint: BLIF file paths or built-in benchmark \
             names, checked in order.")
  in
  let max_fanin =
    Arg.(
      value & opt int 3
      & info [ "max-fanin" ] ~docv:"K"
          ~doc:"Fan-in bound k the audit checks gates against.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero on warnings too, not just errors.")
  in
  let doc = "Static analysis: structural lint and dataflow diagnostics" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the multi-pass netlist analyzer: BLIF-level structure \
         (combinational cycles with a witness path, duplicate drivers, \
         dangling nets), output-cone reachability (dead gates, unused \
         inputs), constant propagation (statically-constant outputs, \
         controlled gates), fan-in audit with a Theorem 4 depth \
         cross-check, structural-duplicate detection, and \
         bound-applicability checks for the paper's preconditions.";
      `P
        "Exit status is 1 when any report carries errors (with \
         $(b,--strict), warnings too), 3 when a circuit cannot be read.";
    ]
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      const run $ specs $ max_fanin $ epsilon_arg $ delta_arg $ strict
      $ format_arg)

(* ------------------------------------------------------------------ *)
(* suite                                                                *)
(* ------------------------------------------------------------------ *)

let suite_cmd =
  let run () =
    print_string
      (Nano_report.Report.Table.render
         ~header:[ "name"; "substitutes"; "description" ]
         ~rows:
           (List.map
              (fun e ->
                [
                  e.Nano_circuits.Suite.name;
                  (match e.Nano_circuits.Suite.iscas_counterpart with
                  | Some c -> c
                  | None -> "-");
                  e.Nano_circuits.Suite.description;
                ])
              Nano_circuits.Suite.all));
    print_newline ();
    print_endline "Published ISCAS'85 metadata (reporting context only):";
    List.iter
      (fun p -> Format.printf "  %a@." Nano_circuits.Iscas_profiles.pp p)
      Nano_circuits.Iscas_profiles.all
  in
  let doc = "List built-in benchmark circuits" in
  Cmd.v (Cmd.info "suite" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run socket tcp stdio jobs cache_size max_request_bytes timeout_ms trace
      journal workers max_clients max_pending =
    let transports =
      (if socket <> None then 1 else 0)
      + (if tcp <> None then 1 else 0)
      + if stdio then 1 else 0
    in
    if transports > 1 then begin
      prerr_endline
        "error: --socket, --tcp and --stdio are mutually exclusive";
      exit 1
    end;
    if stdio && workers > 0 then begin
      prerr_endline "error: --workers requires a socket transport";
      exit 1
    end;
    let config =
      {
        Nano_service.Service.jobs;
        cache_capacity = cache_size;
        max_request_bytes;
        default_timeout_ms = timeout_ms;
        trace;
        journal;
        workers;
        max_clients;
        max_pending;
        max_reply_bytes = (Nano_service.Service.default_config ()).max_reply_bytes;
      }
    in
    let t =
      match Nano_service.Service.create ~config () with
      | t -> t
      | exception Nano_service.Journal.Not_a_journal path ->
        prerr_endline (path ^ ": not a nanobound journal");
        exit 1
      | exception Unix.Unix_error (err, _, arg) ->
        (* Only the journal touches the file system here. *)
        let path = if arg = "" then Option.value journal ~default:"" else arg in
        prerr_endline (path ^ ": " ^ Unix.error_message err);
        exit 1
    in
    (match (socket, tcp) with
    | Some path, _ -> Nano_service.Service.serve_unix t ~socket_path:path
    | None, Some endpoint -> (
      match Nano_service.Net.parse_endpoint endpoint with
      | `Tcp (host, port) -> Nano_service.Service.serve_tcp t ~host ~port
      | `Unix _ ->
        prerr_endline ("error: --tcp expects HOST:PORT, got " ^ endpoint);
        exit 1)
    | None, None -> Nano_service.Service.run_stdio t stdin stdout);
    Nano_service.Service.close t
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Serve on a TCP socket bound to $(docv). The same \
                   endpoint also answers minimal HTTP/1.1: POST a JSON \
                   request body and read the reply back as \
                   application/json.")
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve on stdin/stdout (the default when --socket and \
                   --tcp are absent).")
  in
  let cache_size =
    Arg.(value & opt int 256
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"LRU capacity (entries) of the content-addressed result, \
                   profile and circuit-identity caches; 0 disables caching.")
  in
  let max_request_bytes =
    Arg.(value & opt int (8 * 1024 * 1024)
         & info [ "max-request-bytes" ] ~docv:"N"
             ~doc:"Reject request lines longer than $(docv) with a \
                   structured error.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline for requests that carry \
                   no timeout_ms field.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Log request lifecycles (kind, cache disposition, \
                   latency) to stderr.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Persist the response cache to an append-only journal \
                   at $(docv); on restart its valid prefix is replayed \
                   (torn tails from a crash are truncated), so warm \
                   replies survive the daemon. A file that is not a \
                   journal is refused, untouched. With --workers N, \
                   worker $(i,i) persists to $(docv).shard$(i,i).")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Pre-fork $(docv) evaluation worker processes and \
                   shard requests over them by content address, so \
                   repeated requests always hit the same warm cache. 0 \
                   (default) evaluates in-process.")
  in
  let max_clients =
    Arg.(value & opt int 960
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Answer connections beyond $(docv) with a structured \
                   overloaded error instead of queueing them.")
  in
  let max_pending =
    Arg.(value & opt int 1024
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Bound on admitted-but-unanswered requests across all \
                   connections; excess requests are shed with structured \
                   overloaded errors.")
  in
  let doc = "Run the persistent evaluation daemon (newline-delimited JSON)" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket $ tcp $ stdio $ jobs_arg $ cache_size
      $ max_request_bytes $ timeout_ms $ trace $ journal $ workers
      $ max_clients $ max_pending)

(* ------------------------------------------------------------------ *)
(* request                                                              *)
(* ------------------------------------------------------------------ *)

let request_cmd =
  let run socket tcp requests =
    let endpoint =
      match (socket, tcp) with
      | Some path, None -> Nano_service.Client.Unix_socket path
      | None, Some spec -> (
        match Nano_service.Net.parse_endpoint spec with
        | `Tcp (host, port) -> Nano_service.Client.Tcp (host, port)
        | `Unix _ ->
          prerr_endline ("error: --tcp expects HOST:PORT, got " ^ spec);
          exit 1)
      | Some _, Some _ ->
        prerr_endline "error: --socket and --tcp are mutually exclusive";
        exit 1
      | None, None ->
        prerr_endline "error: give --socket PATH or --tcp HOST:PORT";
        exit 1
    in
    match Nano_service.Client.connect endpoint with
    | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 3
    | Ok client ->
      let status = ref 0 in
      List.iter
        (fun line ->
          match Nano_service.Client.request_line client line with
          | Error msg ->
            prerr_endline ("error: " ^ msg);
            status := 3
          | Ok reply ->
            print_endline reply;
            (* Reflect structured failures in the exit code. *)
            (match Nano_util.Json.parse reply with
            | Ok v
              when Nano_util.Json.member "ok" v = Some (Nano_util.Json.Bool true)
              -> ()
            | _ -> if !status = 0 then status := 1))
        requests;
      Nano_service.Client.close client;
      exit !status
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the daemon (see `nanobound \
                   serve'). Connection is retried for a few seconds, so \
                   a freshly started daemon can be addressed \
                   immediately.")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"TCP endpoint of the daemon (see `nanobound serve \
                   --tcp'). Connection is retried for a few seconds, so \
                   a freshly started or restarting daemon can be \
                   addressed immediately.")
  in
  let requests =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"REQUEST"
             ~doc:"One JSON request object per argument, sent in order \
                   on one connection; each reply is printed on its own \
                   line.")
  in
  let doc = "Send requests to a running evaluation daemon" in
  Cmd.v (Cmd.info "request" ~doc) Term.(const run $ socket $ tcp $ requests)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "energy bounds for fault-tolerant nanoscale designs (DATE 2005 \
     reproduction)"
  in
  let info = Cmd.info "nanobound" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            bounds_cmd; analyze_cmd; tech_cmd; synth_cmd; inject_cmd;
            equiv_cmd; critical_cmd; static_cmd;
            sweep_cmd; lint_cmd; suite_cmd; serve_cmd; request_cmd;
          ]))
