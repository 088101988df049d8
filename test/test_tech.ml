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

(* ------------------------------------------------------------------ *)
(* Mutated pack texts: every surface answers, none raises.              *)
(* ------------------------------------------------------------------ *)

let builtin_texts =
  Array.of_list (List.map (fun p -> Json.to_string (Pack.to_json p)) Builtin.all)

(* The numeric members of a pack text, as (key, start, stop) spans of
   the number after ["key":]. *)
let numeric_spans text =
  let n = String.length text in
  let is_num c = (c >= '0' && c <= '9') || String.contains ".eE+-" c in
  let spans = ref [] in
  for i = 1 to n - 2 do
    if text.[i] = ':' && text.[i - 1] = '"' && is_num text.[i + 1] then begin
      let key_start = String.rindex_from text (i - 2) '"' + 1 in
      let stop = ref (i + 1) in
      while !stop < n && is_num text.[!stop] do
        incr stop
      done;
      spans :=
        (String.sub text key_start (i - 1 - key_start), i + 1, !stop) :: !spans
    end
  done;
  List.rev !spans

let replace_spans text spans value =
  let b = Buffer.create (String.length text) in
  let at =
    List.fold_left
      (fun at (_, start, stop) ->
        Buffer.add_string b (String.sub text at (start - at));
        Buffer.add_string b value;
        stop)
      0 spans
  in
  Buffer.add_string b (String.sub text at (String.length text - at));
  Buffer.contents b

let edge_values = [| "0"; "5e-324"; "1e308"; "-1"; "1e999"; {|"x"|} |]

(* One mutant of a built-in pack's canonical text, drawn from [seed]:
   a byte flip, a cut, or a numeric member (mostly a gate's e, pl, a or
   t) replaced by an edge value, at one place or at every member of
   that name. *)
let mutant seed =
  let rng = Random.State.make [| seed |] in
  let int bound = Random.State.int rng bound in
  let text = builtin_texts.(int (Array.length builtin_texts)) in
  let n = String.length text in
  match int 4 with
  | 0 ->
    let b = Bytes.of_string text in
    for _ = 0 to int 3 do
      Bytes.set b (int n) (Char.chr (int 256))
    done;
    Bytes.to_string b
  | 1 -> String.sub text 0 (int n)
  | _ ->
    let spans = Array.of_list (numeric_spans text) in
    let key =
      if int 4 = 0 then
        let k, _, _ = spans.(int (Array.length spans)) in
        k
      else [| "e"; "pl"; "a"; "t" |].(int 4)
    in
    let named = List.filter (fun (k, _, _) -> k = key) (Array.to_list spans) in
    let chosen =
      if int 2 = 0 then named else [ List.nth named (int (List.length named)) ]
    in
    replace_spans text chosen edge_values.(int (Array.length edge_values))

let reply_code reply =
  match Json.parse reply with
  | Ok v -> (
    match Json.member "ok" v with
    | Some (Json.Bool true) -> Some "ok"
    | _ ->
      Option.bind (Json.member "error" v) (fun e ->
          Option.bind (Json.member "code" e) Json.to_string_opt))
  | Error _ -> None

let fuzz_service =
  lazy
    (Nano_service.Service.create
       ~config:
         {
           (Nano_service.Service.default_config ()) with
           Nano_service.Service.jobs = 1;
           cache_capacity = 64;
         }
       ())

(* The loader decides every mutant; a mutant that is a JSON object,
   sent inline with an analyze, gets a reply or the loader's
   [invalid_tech] error, never an exception turned into [bad_request]
   or [internal_error]. *)
let prop_mutated_packs_never_raise =
  QCheck2.Test.make ~name:"mutated packs: loader and daemon never raise"
    ~count:600
    ~print:(fun seed -> String.escaped (mutant seed))
    QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed ->
      let text = mutant seed in
      let outcome = Loader.load_string text in
      let errors =
        List.exists
          (fun d -> d.Diagnostic.severity = Diagnostic.Error)
          outcome.Loader.diagnostics
      in
      if errors = Option.is_some outcome.Loader.pack then
        QCheck2.Test.fail_report "a pack with errors, or no pack without";
      match Json.parse text with
      | Ok (Json.Obj _) ->
        let circuit = if seed land 1 = 0 then "c17" else "rca8" in
        let line =
          Printf.sprintf {|{"kind":"analyze","circuit":"%s","tech":%s}|}
            circuit text
        in
        let reply =
          Nano_service.Service.handle_line (Lazy.force fuzz_service) line
        in
        let expected = if errors then "invalid_tech" else "ok" in
        (match reply_code reply with
        | Some code when code = expected -> true
        | _ -> QCheck2.Test.fail_reportf "reply %s" reply)
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* The profile's counts are the report's pinned estimate.               *)
(* ------------------------------------------------------------------ *)

let test_profile_counts_give_same_report () =
  List.iter
    (fun e ->
      let net = mapped_suite e.Nano_circuits.Suite.name in
      let profile, counts = Nano_bounds.Profile.of_netlist_counted net in
      Alcotest.(check bool)
        (e.Nano_circuits.Suite.name ^ ": same profile")
        true
        (profile = Nano_bounds.Profile.of_netlist net);
      let node_activity = Nano_sim.Activity.node_activity_of_counts counts in
      List.iter
        (fun pack ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: counts = own simulation"
               e.Nano_circuits.Suite.name pack.Pack.name)
            (Json.to_string (Report.to_json (Report.analyze ~pack ~profile net)))
            (Json.to_string
               (Report.to_json
                  (Report.analyze ~node_activity ~pack ~profile net))))
        Builtin.all)
    Nano_circuits.Suite.all

(* ------------------------------------------------------------------ *)
(* Packs that validate but overflow a double.                           *)
(* ------------------------------------------------------------------ *)

(* cmos55 with every gate's [field] set to 1e308: the loader accepts it,
   and the sums over gates overflow. *)
let huge field =
  let set (e : Pack.entry) =
    match field with
    | "e" -> { e with Pack.energy_j = 1e308 }
    | "pl" -> { e with Pack.leakage_w = 1e308 }
    | _ -> { e with Pack.delay_s = 1e308 }
  in
  {
    Builtin.cmos55 with
    Pack.name = "huge_" ^ field;
    gates = List.map (fun (k, e) -> (k, set e)) Builtin.cmos55.Pack.gates;
  }

let test_overflowing_packs_answer () =
  let member path json =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
  in
  List.iter
    (fun (field, nulls, bound_nulls) ->
      let pack = huge field in
      Alcotest.(check (list string)) (field ^ ": validates") []
        (codes (Loader.validate pack));
      List.iter
        (fun name ->
          let tag = Printf.sprintf "%s/%s" name field in
          let r = report ~pack (mapped_suite name) in
          let json = Report.to_json r in
          ignore (Json.to_string json);
          ignore (Format.asprintf "%a" Report.pp r);
          List.iter
            (fun k ->
              Alcotest.(check bool) (tag ^ ": totals." ^ k ^ " null") true
                (member [ "totals"; k ] json = Some Json.Null))
            nulls;
          (match Json.member "bounds" json with
          | Some (Json.List rows) ->
            List.iter
              (fun row ->
                Alcotest.(check bool) (tag ^ ": energy_ratio null") bound_nulls
                  (Json.member "energy_ratio" row = Some Json.Null);
                Alcotest.(check bool) (tag ^ ": bound_energy_j null") true
                  (Json.member "bound_energy_j" row = Some Json.Null);
                Alcotest.(check bool) (tag ^ ": W/W0 reads no share") false
                  (Json.member "leakage_ratio_change" row = Some Json.Null))
              rows
          | _ -> Alcotest.fail "bounds missing");
          let line =
            Printf.sprintf {|{"kind":"analyze","circuit":"%s","tech":%s}|} name
              (Json.to_string (Pack.to_json pack))
          in
          let reply =
            Nano_service.Service.handle_line (Lazy.force fuzz_service) line
          in
          Alcotest.(check (option string)) (tag ^ ": daemon answers ok")
            (Some "ok") (reply_code reply))
        [ "c17"; "rca8" ])
    [
      ("e", [ "switching_j"; "total_j" ], false);
      ("pl", [ "leakage_w"; "leakage_j"; "total_j"; "leakage_share" ], true);
      ( "t",
        [ "critical_path_s"; "leakage_j"; "total_j"; "leakage_share" ],
        true );
    ]

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
    Helpers.qcheck prop_mutated_packs_never_raise;
    Alcotest.test_case "profile counts give the same report" `Quick
      test_profile_counts_give_same_report;
    Alcotest.test_case "overflowing packs answer" `Quick
      test_overflowing_packs_answer;
  ]
