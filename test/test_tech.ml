module Gate = Nano_netlist.Gate
module Json = Nano_util.Json
module Diagnostic = Nano_lint.Diagnostic
module Pack = Nano_tech.Pack
module Builtin = Nano_tech.Builtin
module Loader = Nano_tech.Loader
module Report = Nano_tech.Report

let fr = Json.float_repr

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let mapped_suite = Helpers.mapped_suite ~max_fanin:3

let report ~pack net =
  let profile = Nano_bounds.Profile.of_netlist net in
  Report.analyze ~pack ~profile net

(* ------------------------------------------------------------------ *)
(* Built-ins and the JSON round trip.                                   *)
(* ------------------------------------------------------------------ *)

let test_builtins_clean () =
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        (p.Pack.name ^ " validates") [] (codes (Loader.validate p));
      Alcotest.(check bool)
        (p.Pack.name ^ " findable") true
        (Builtin.find p.Pack.name = Some p))
    Builtin.all;
  Alcotest.(check bool) "unknown pack" true (Builtin.find "tfet" = None)

let test_round_trip () =
  List.iter
    (fun p ->
      let text = Json.to_string (Pack.to_json p) in
      match Loader.load_string text with
      | { Loader.pack = Some q; diagnostics = [] } ->
        (* The canonical digest survives serialize -> parse -> decode,
           which is what lets named and inline spellings of one pack
           share a service cache entry. *)
        Alcotest.(check string)
          (p.Pack.name ^ " digest stable") (Pack.digest p) (Pack.digest q);
        Alcotest.(check string)
          (p.Pack.name ^ " json stable") text (Json.to_string (Pack.to_json q))
      | { Loader.diagnostics; _ } ->
        Alcotest.failf "%s round trip: %s" p.Pack.name
          (String.concat "," (codes diagnostics)))
    Builtin.all

(* A minimal valid pack source to perturb in the rejection tests. *)
let valid_src =
  {|{"name":"tiny","vdd":1.0,"gates":{"nand":{"e":1e-15,"pl":1e-13,"a":1e-12,"t":1e-11}}}|}

let load_err src =
  match Loader.load_string src with
  | { Loader.pack = None; diagnostics } -> codes diagnostics
  | { Loader.pack = Some _; _ } -> Alcotest.fail "expected rejection"

let test_rejections () =
  let has code src =
    Alcotest.(check bool)
      (code ^ " reported") true
      (List.mem code (load_err src))
  in
  has "parse-error" "not json at all";
  has "bad-pack" "[1,2]";
  has "missing-field" {|{"vdd":1.0,"gates":{}}|};
  has "empty-gates" {|{"name":"x","vdd":1.0,"gates":{}}|};
  has "missing-field" {|{"name":"x","vdd":1.0}|};
  has "bad-type" {|{"name":"x","vdd":"high","gates":{}}|};
  has "bad-domain" {|{"name":"x","vdd":0.0,"gates":{}}|};
  has "negative-constant"
    {|{"name":"x","vdd":1.0,"gates":{"nand":{"e":-1e-15,"pl":0,"a":0,"t":0}}}|};
  has "unknown-gate-kind"
    {|{"name":"x","vdd":1.0,"gates":{"latch":{"e":1,"pl":0,"a":0,"t":0}}}|};
  (* Source gates can never consume energy, so they are rejected too. *)
  has "unknown-gate-kind"
    {|{"name":"x","vdd":1.0,"gates":{"const0":{"e":1,"pl":0,"a":0,"t":0}}}|};
  has "bad-domain"
    {|{"name":"x","vdd":1.0,"intrinsic_epsilon":0.6,"gates":{"nand":{"e":1,"pl":0,"a":0,"t":0}}}|};
  (* NaN cannot be spelled in JSON; it reaches validate via in-memory
     packs, and must NOT raise through the serializer. *)
  let nan_pack =
    match Loader.load_string valid_src with
    | { Loader.pack = Some p; _ } -> { p with Pack.clock_energy_j = Float.nan }
    | _ -> Alcotest.fail "valid_src must load"
  in
  Alcotest.(check bool)
    "nan-constant reported" true
    (List.mem "nan-constant" (codes (Loader.validate nan_pack)))

let test_warnings_keep_pack () =
  let src =
    {|{"name":"x","vdd":1.0,"vendor":"acme","gates":{"nand":{"e":1e-15,"pl":0,"a":0,"t":0,"vt":0.3}}}|}
  in
  match Loader.load_string src with
  | { Loader.pack = Some _; diagnostics } ->
    Alcotest.(check (list string))
      "unknown fields are warnings"
      [ "unknown-field"; "unknown-field" ]
      (codes diagnostics);
    Alcotest.(check bool)
      "warnings only" true
      (List.for_all
         (fun d -> d.Diagnostic.severity = Diagnostic.Warning)
         diagnostics)
  | { Loader.pack = None; _ } -> Alcotest.fail "warnings must not reject"

let test_fanin_scaling () =
  let p = Builtin.cmos55 in
  let base =
    match Pack.scaled p Gate.Nand ~arity:2 with
    | Some e -> e
    | None -> Alcotest.fail "nand mapped"
  in
  (match Pack.scaled p Gate.Nand ~arity:3 with
  | Some e ->
    Helpers.check_loose "one extra input derates by fanin_scale"
      (base.Pack.energy_j *. (1. +. p.Pack.fanin_scale))
      e.Pack.energy_j
  | None -> Alcotest.fail "nand3 mapped");
  Alcotest.(check bool) "buf unmapped in cmos55" true
    (Pack.scaled p Gate.Buf ~arity:1 = None)

(* ------------------------------------------------------------------ *)
(* Golden absolute numbers (pinned via the wire float representation,   *)
(* so any drift in activity, timing, mapping or the packs shows up).    *)
(* ------------------------------------------------------------------ *)

let check_golden ~pack net ~switching_j ~total_j ~share ~crit ~bound01 =
  let r = report ~pack net in
  Alcotest.(check string) "switching_j" switching_j (fr r.Report.switching_j);
  Alcotest.(check string) "total_j" total_j (fr r.Report.total_j);
  Alcotest.(check string) "leakage_share" share (fr r.Report.leakage_share);
  Alcotest.(check string) "critical_path_s" crit (fr r.Report.critical_path_s);
  let b = List.nth r.Report.bounds 1 in
  Alcotest.(check string) "bound at eps=0.01" bound01 (fr b.Report.bound_energy_j);
  Alcotest.(check (list string)) "no diagnostics" [] (codes r.Report.diagnostics);
  (* The joules column is exactly the normalized column re-scaled. *)
  List.iter
    (fun (b : Report.bound_row) ->
      Helpers.check_loose "bound_j = ratio * total"
        (b.Report.energy_ratio *. r.Report.total_j)
        b.Report.bound_energy_j)
    r.Report.bounds

let test_golden_fulladder () =
  let net =
    Nano_synth.Script.rugged_lite ~max_fanin:3
      (Nano_circuits.Adders.ripple_carry ~width:1)
  in
  check_golden ~pack:Builtin.cmos55 net
    ~switching_j:"6.2606571812629694e-15" ~total_j:"6.2606572561429695e-15"
    ~share:"1.1960405583060404e-08" ~crit:"7.8e-11"
    ~bound01:"8.231903356868055e-15";
  check_golden ~pack:Builtin.nanodev net
    ~switching_j:"1.4395701217651368e-16" ~total_j:"1.8043701217651368e-16"
    ~share:"0.20217581503906307" ~crit:"6e-10"
    ~bound01:"2.502504534642744e-16"

let test_golden_rca8 () =
  let net = mapped_suite "rca8" in
  check_golden ~pack:Builtin.cmos55 net
    ~switching_j:"5.008794569170475e-14" ~total_j:"5.0087948456504745e-14"
    ~share:"5.519890682687655e-08" ~crit:"3.6e-10"
    ~bound01:"6.918533881499483e-14";
  check_golden ~pack:Builtin.nanodev net
    ~switching_j:"1.1517227439880372e-15" ~total_j:"3.019498743988037e-15"
    ~share:"0.6185715439421291" ~crit:"3.84e-09"
    ~bound01:"4.434141075332463e-15"

let test_intrinsic_epsilon_floor () =
  (* nanodev's device-error floor (2%) makes the 0.1% and 1% rows
     coincide; the 10% row is above the floor and differs. *)
  let r = report ~pack:Builtin.nanodev (mapped_suite "rca8") in
  match r.Report.bounds with
  | [ b1; b2; b3 ] ->
    Alcotest.(check string) "floored eff" "0.02" (fr b1.Report.effective_epsilon);
    Helpers.check_float "rows coincide" b1.Report.bound_energy_j
      b2.Report.bound_energy_j;
    Alcotest.(check bool) "10% above floor" true
      (b3.Report.effective_epsilon = 0.1
      && b3.Report.bound_energy_j > b2.Report.bound_energy_j)
  | _ -> Alcotest.fail "expected three bound rows"

(* ------------------------------------------------------------------ *)
(* Cross-check against the normalized nano_energy path.                 *)
(* ------------------------------------------------------------------ *)

let test_cross_check_energy_model () =
  (* A pack whose absolute energies restate [Energy_model]'s relative
     capacitances in joules (E = 1/2 C V^2 per activity unit) must make
     the weighted-activity report agree with
     [Energy_model.of_netlist_weighted] on a circuit whose gates all
     sit at their reference arity (rca8 maps to XOR2 + MAJ3). *)
  let tech = Nano_energy.Technology.nm90 in
  let open Nano_energy.Technology in
  let entry kind =
    let cap =
      Nano_energy.Energy_model.gate_capacitance kind
        ~arity:(Pack.reference_arity kind)
    in
    {
      Pack.energy_j = 0.5 *. tech.cap_per_gate *. cap *. tech.vdd *. tech.vdd;
      leakage_w = 0.;
      area_m2 = 0.;
      delay_s = 0.;
    }
  in
  let pack =
    Pack.normalize
      {
        Pack.name = "xcheck";
        description = "";
        vdd = tech.vdd;
        wire_cap_f_per_m = 0.;
        wire_res_ohm_per_m = 0.;
        clock_energy_j = 0.;
        fanin_scale = 0.;
        intrinsic_epsilon = 0.;
        gates = List.map (fun k -> (k, entry k)) Pack.kind_order;
      }
  in
  let net = mapped_suite "rca8" in
  let r = report ~pack net in
  let activity = Nano_sim.Activity.monte_carlo ~seed:0x5eed ~vectors:4096 net in
  let est =
    Nano_energy.Energy_model.of_netlist_weighted ~tech
      ~node_activity:activity.Nano_sim.Activity.node_activity net
  in
  let rel = abs_float (r.Report.switching_j -. est.Nano_energy.Energy_model.switching_energy)
            /. est.Nano_energy.Energy_model.switching_energy in
  Alcotest.(check bool) "absolute path matches normalized path" true
    (rel < 1e-12)

(* ------------------------------------------------------------------ *)
(* Unmapped gate kinds.                                                 *)
(* ------------------------------------------------------------------ *)

let test_unmapped_gate_kind () =
  (* Strip MAJ out of cmos55: every majority gate in the mapped rca8
     must yield one deterministic per-node error, never an exception,
     and the totals must exclude the unmapped gates. *)
  let partial =
    Pack.normalize
      {
        Builtin.cmos55 with
        Pack.name = "partial";
        gates =
          List.filter (fun (k, _) -> k <> Gate.Majority) Builtin.cmos55.Pack.gates;
      }
  in
  let net = mapped_suite "rca8" in
  let full = report ~pack:Builtin.cmos55 net in
  let r = report ~pack:partial net in
  let maj =
    List.filter (fun (g : Report.gate_row) -> g.Report.kind = Gate.Majority)
      full.Report.gates
  in
  (match maj with
  | [ g ] ->
    Alcotest.(check int) "one error per majority gate" g.Report.count
      (List.length r.Report.diagnostics)
  | _ -> Alcotest.fail "rca8 should map to some majority gates");
  List.iter
    (fun d ->
      Alcotest.(check string) "code" "unmapped-gate-kind" d.Diagnostic.code;
      Alcotest.(check string) "pass" "tech" d.Diagnostic.pass;
      Alcotest.(check bool) "node locus" true
        (match d.Diagnostic.locus with Diagnostic.Node _ -> true | _ -> false))
    r.Report.diagnostics;
  Alcotest.(check bool) "diagnostics sorted" true
    (List.sort Diagnostic.compare r.Report.diagnostics = r.Report.diagnostics);
  Alcotest.(check bool) "unmapped gates excluded from totals" true
    (r.Report.switching_j < full.Report.switching_j
    && r.Report.area_m2 < full.Report.area_m2);
  (* And the JSON encoding carries them (only when non-empty). *)
  (match Json.member "diagnostics" (Report.to_json r) with
  | Some (Json.List ds) ->
    Alcotest.(check int) "encoded" (List.length r.Report.diagnostics)
      (List.length ds)
  | _ -> Alcotest.fail "diagnostics block missing");
  Alcotest.(check bool) "clean report omits the block" true
    (Json.member "diagnostics" (Report.to_json full) = None)

(* Every built-in pack prices the mapped suite circuits the pack report
   has always been shown on: a finite positive total and a leakage
   share in [0, 1]. *)
let test_builtins_price_suite () =
  List.iter
    (fun name ->
      let net = mapped_suite name in
      List.iter
        (fun pack ->
          let r = report ~pack net in
          let tag = Printf.sprintf "%s/%s" name pack.Pack.name in
          Alcotest.(check bool)
            (tag ^ ": total_j finite and > 0")
            true
            (Float.is_finite r.Report.total_j && r.Report.total_j > 0.);
          Helpers.check_in_range (tag ^ ": leakage_share") ~lo:0. ~hi:1.
            r.Report.leakage_share)
        Builtin.all)
    [ "c17"; "rca8"; "alu8" ]

let suite =
  [
    Alcotest.test_case "builtins validate" `Quick test_builtins_clean;
    Alcotest.test_case "builtins price mapped suite circuits" `Quick
      test_builtins_price_suite;
    Alcotest.test_case "json round trip" `Quick test_round_trip;
    Alcotest.test_case "schema rejections" `Quick test_rejections;
    Alcotest.test_case "warnings keep pack" `Quick test_warnings_keep_pack;
    Alcotest.test_case "fanin scaling" `Quick test_fanin_scaling;
    Alcotest.test_case "golden fulladder" `Quick test_golden_fulladder;
    Alcotest.test_case "golden rca8" `Quick test_golden_rca8;
    Alcotest.test_case "intrinsic epsilon floor" `Quick
      test_intrinsic_epsilon_floor;
    Alcotest.test_case "cross-check energy model" `Quick
      test_cross_check_energy_model;
    Alcotest.test_case "unmapped gate kind" `Quick test_unmapped_gate_kind;
  ]
