module Lint = Nano_lint.Lint
module Diagnostic = Nano_lint.Diagnostic
module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Json = Nano_util.Json

(* Compress a report into a comparable fingerprint: one
   (severity, pass, code, locus, line) tuple per diagnostic, in report
   order. Messages are asserted separately where their content matters
   (the cycle witness), so wording can improve without breaking the
   structural contract. *)
let shape report =
  List.map
    (fun d ->
      ( Diagnostic.severity_name d.Diagnostic.severity,
        d.Diagnostic.pass,
        d.Diagnostic.code,
        d.Diagnostic.locus,
        d.Diagnostic.line ))
    report.Lint.diagnostics

let pp_shape entries =
  String.concat "\n"
    (List.map
       (fun (sev, pass, code, locus, line) ->
         Format.asprintf "%s %s %s %s %s" sev pass code
           (match locus with
           | Diagnostic.Whole -> "netlist"
           | Diagnostic.Node id -> Printf.sprintf "node:%d" id
           | Diagnostic.Net n -> "net:" ^ n
           | Diagnostic.In_port n -> "in:" ^ n
           | Diagnostic.Out_port n -> "out:" ^ n)
           (match line with Some l -> string_of_int l | None -> "-"))
       entries)

let check_shape msg expected report =
  let got = shape report in
  if got <> expected then
    Alcotest.failf "%s:\nexpected:\n%s\ngot:\n%s" msg (pp_shape expected)
      (pp_shape got)

let find_code report code =
  List.filter (fun d -> d.Diagnostic.code = code) report.Lint.diagnostics

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* The five pathological fixtures.                                      *)
(* ------------------------------------------------------------------ *)

let cyclic_blif =
  ".model cyc\n.inputs a\n.outputs z\n.names a f g\n11 1\n.names g f\n1 1\n\
   .names g z\n1 1\n.end\n"

let test_cycle_detected () =
  let report = Lint.run_blif_string cyclic_blif in
  check_shape "cycle diagnostics"
    [ ("error", "cycle", "combinational-cycle", Diagnostic.Net "g", Some 4) ]
    report;
  Alcotest.(check int) "errors" 1 (Lint.errors report);
  Alcotest.(check bool) "no digest without elaboration" true
    (report.Lint.digest = None);
  match find_code report "combinational-cycle" with
  | [ d ] ->
    Alcotest.(check string) "witness path" "combinational cycle: g -> f -> g"
      d.Diagnostic.message
  | _ -> Alcotest.fail "expected exactly one cycle diagnostic"

let dangling_blif =
  ".model dang\n.inputs a b\n.outputs z\n.names a b z\n11 1\n\
   .names a b dead\n10 1\n.end\n"

let test_dangling_net () =
  let report = Lint.run_blif_string dangling_blif in
  check_shape "dangling diagnostics"
    [
      ("warning", "blif", "dangling-net", Diagnostic.Net "dead", Some 6);
      ("info", "fanin", "levelization", Diagnostic.Whole, None);
    ]
    report;
  (* The dead cover is dropped by elaboration, so the netlist passes
     still run (the report carries a digest). *)
  Alcotest.(check bool) "elaborated" true (report.Lint.digest <> None)

let constant_blif =
  ".model konst\n.inputs a\n.outputs z\n.names zero\n.names a zero z\n11 1\n\
   .end\n"

let test_constant_cone () =
  let report = Lint.run_blif_string constant_blif in
  check_shape "constant-cone diagnostics"
    [
      ("error", "bound", "degenerate-function", Diagnostic.Whole, None);
      ("error", "const", "constant-output", Diagnostic.Out_port "z", None);
      ("warning", "const", "constant-fanin", Diagnostic.Node 2, None);
      ("warning", "const", "controlled-gate", Diagnostic.Node 2, None);
      ("info", "fanin", "levelization", Diagnostic.Whole, None);
    ]
    report;
  Alcotest.(check int) "errors" 2 (Lint.errors report)

let duplicate_blif =
  ".model dup\n.inputs a b c\n.outputs x y\n.names a b t1\n11 1\n\
   .names a b t2\n11 1\n.names t1 c x\n11 1\n.names t2 c y\n11 1\n.end\n"

let test_duplicate_subcone () =
  let report = Lint.run_blif_string duplicate_blif in
  check_shape "duplicate diagnostics"
    [
      ("warning", "dup", "duplicate-subcone", Diagnostic.Node 4, None);
      ("info", "fanin", "levelization", Diagnostic.Whole, None);
    ]
    report;
  match find_code report "duplicate-subcone" with
  | [ d ] ->
    (* Only the maximal (outermost) duplicated cones are reported: the
       inner t1/t2 pair is subsumed by the x/y cones here because the
       roots of x and y are themselves duplicates... the gates listed
       are the x/y cone roots. *)
    Alcotest.(check bool) "names both roots" true
      (let has s = contains ~needle:s d.Diagnostic.message in
       has "4" && has "6" && has "strash digest")
  | _ -> Alcotest.fail "expected exactly one duplicate-subcone diagnostic"

(* Elaboration decomposes wide BLIF covers into fanin-2 trees, so the
   fan-in overflow fixture is built directly: majority-3 gates audited
   at k = 2. *)
let majority_netlist () =
  let b = Netlist.Builder.create ~name:"maj" () in
  let a = Netlist.Builder.input b "a" in
  let c = Netlist.Builder.input b "c" in
  let d = Netlist.Builder.input b "d" in
  let m = Netlist.Builder.add b Gate.Majority [ a; c; d ] in
  Netlist.Builder.output b "z" m;
  Netlist.Builder.finish b

let test_fanin_overflow () =
  let options = { Lint.default_options with Lint.max_fanin = 2 } in
  let report = Lint.run_netlist ~options (majority_netlist ()) in
  check_shape "fan-in overflow diagnostics"
    [
      ("error", "fanin", "fanin-exceeds-k", Diagnostic.Node 3, None);
      (* At k = 2 the depth-1 majority also sits below Theorem 4's
         minimum depth for (0.01, 0.01) — a real finding, not noise. *)
      ("warning", "fanin", "depth-below-bound", Diagnostic.Whole, None);
      ("info", "fanin", "levelization", Diagnostic.Whole, None);
    ]
    report;
  (* The same netlist is clean at k = 3. *)
  let clean = Lint.run_netlist (majority_netlist ()) in
  Alcotest.(check int) "clean at k=3" 0
    (Lint.errors clean + Lint.warnings clean)

(* ------------------------------------------------------------------ *)
(* Front-end structural errors.                                         *)
(* ------------------------------------------------------------------ *)

let test_duplicate_driver () =
  let text =
    ".model dd\n.inputs a b\n.outputs z\n.names a z\n1 1\n.names b z\n1 1\n\
     .end\n"
  in
  let report = Lint.run_blif_string text in
  check_shape "duplicate driver"
    [ ("error", "blif", "duplicate-driver", Diagnostic.Net "z", Some 6) ]
    report;
  (match find_code report "duplicate-driver" with
  | [ d ] ->
    Alcotest.(check bool) "mentions first driver line" true
      (contains ~needle:"line 4" d.Diagnostic.message)
  | _ -> Alcotest.fail "expected one duplicate-driver diagnostic");
  (* The parser satellite: parse_string rejects the same text with a
     structured error carrying the duplicate's line. *)
  match Nano_blif.Blif.parse_string text with
  | Ok _ -> Alcotest.fail "parse_string must reject duplicate drivers"
  | Error e ->
    Alcotest.(check int) "error at the second driver" 6 e.Nano_blif.Blif.line

let test_undefined_and_bound_domains () =
  let report =
    Lint.run_blif_string
      ".model u\n.inputs a\n.outputs z\n.names a ghost z\n11 1\n.end\n"
  in
  check_shape "undefined signal"
    [ ("error", "blif", "undefined-signal", Diagnostic.Net "ghost", Some 4) ]
    report;
  (* Bound-applicability: out-of-domain operating points are errors on
     an otherwise clean netlist. *)
  let options =
    { Lint.max_fanin = 1; epsilon = 0.7; delta = 0.5 }
  in
  let report =
    Lint.run_netlist ~options
      (match Nano_blif.Blif.parse_string dangling_blif with
      | Ok n -> n
      | Error _ -> Alcotest.fail "fixture must parse")
  in
  let codes =
    List.map (fun d -> d.Diagnostic.code) (find_code report "epsilon-domain")
    @ List.map (fun d -> d.Diagnostic.code) (find_code report "delta-domain")
    @ List.map (fun d -> d.Diagnostic.code) (find_code report "fanin-domain")
  in
  Alcotest.(check (list string)) "domain errors"
    [ "epsilon-domain"; "delta-domain"; "fanin-domain" ]
    codes

(* ------------------------------------------------------------------ *)
(* Determinism and surface identity.                                    *)
(* ------------------------------------------------------------------ *)

let test_json_stable () =
  let j1 = Json.to_string (Lint.report_to_json (Lint.run_blif_string cyclic_blif)) in
  let j2 = Json.to_string (Lint.report_to_json (Lint.run_blif_string cyclic_blif)) in
  Alcotest.(check string) "same text, same bytes" j1 j2

let test_service_matches_direct_run () =
  (* The acceptance contract: lint diagnostics are bit-identical
     between a direct library run and the service reply for the same
     digest. *)
  let t = Nano_service.Service.create () in
  let reply =
    Nano_service.Service.handle_line t {|{"kind":"lint","circuit":"c17"}|}
  in
  let direct =
    match Nano_circuits.Suite.find "c17" with
    | Some entry ->
      Nano_service.Protocol.ok_reply
        (Lint.report_to_json
           (Lint.run_netlist (entry.Nano_circuits.Suite.build ())))
    | None -> Alcotest.fail "c17 must exist"
  in
  Alcotest.(check string) "service lint = direct lint" direct reply;
  (* And the cached re-run is byte-identical too. *)
  let warm =
    Nano_service.Service.handle_line t {|{"kind":"lint","circuit":"c17"}|}
  in
  Alcotest.(check string) "warm = cold" reply warm

let test_preflight_only_when_noisy () =
  let clean =
    match Nano_circuits.Suite.find "c17" with
    | Some entry -> Lint.run_netlist (entry.Nano_circuits.Suite.build ())
    | None -> Alcotest.fail "c17 must exist"
  in
  Alcotest.(check bool) "clean circuit attaches nothing" true
    (Lint.preflight_json clean = None);
  let noisy = Lint.run_blif_string constant_blif in
  match Lint.preflight_json noisy with
  | None -> Alcotest.fail "degenerate circuit must attach a preflight block"
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "counts present" true
      (List.mem_assoc "errors" fields && List.mem_assoc "warnings" fields);
    (* Infos are CLI detail, not preflight noise. *)
    (match List.assoc "diagnostics" fields with
    | Json.List ds ->
      Alcotest.(check bool) "no infos attached" true
        (List.for_all
           (fun d ->
             Json.member "severity" d <> Some (Json.String "info"))
           ds)
    | _ -> Alcotest.fail "diagnostics must be a list")
  | Some _ -> Alcotest.fail "preflight must be an object"

(* ------------------------------------------------------------------ *)
(* Property: lint-clean netlists simulate cleanly.                      *)
(* ------------------------------------------------------------------ *)

let prop_clean_netlists_simulate =
  QCheck2.Test.make ~name:"lint-clean random netlists simulate" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let netlist =
        Helpers.random_netlist ~seed ~inputs:4 ~gates:12 ()
      in
      let report = Lint.run_netlist netlist in
      (* Random netlists may be degenerate (warnings/errors are the
         analyzer doing its job); the property is that a lint pass and
         a simulation never crash, and that a clean verdict implies a
         well-formed simulation. *)
      let inputs = Array.make (Netlist.input_count netlist) false in
      match Netlist.eval_nodes netlist inputs with
      | values ->
        Array.length values = Netlist.node_count netlist
        && (Lint.errors report = 0 || report.Lint.diagnostics <> [])
      | exception Invalid_argument _ -> false)

(* ------------------------------------------------------------------ *)
(* The duplicate-subcone pass against its reference, and pinned.       *)
(* ------------------------------------------------------------------ *)

let reachable netlist = fst (Nano_lint.Cone.run netlist)

let same_dup_diagnostics netlist =
  let reachable = reachable netlist in
  Nano_lint.Duplicates.run netlist ~reachable
  = Duplicates_ref.run netlist ~reachable

let blif_spelling netlist =
  match Nano_blif.Blif.parse_string (Nano_blif.Blif.to_string netlist) with
  | Ok n -> n
  | Error _ -> Alcotest.failf "BLIF round trip of %s" (Netlist.name netlist)

let test_duplicates_match_reference_on_suite () =
  List.iter
    (fun entry ->
      let netlist = entry.Nano_circuits.Suite.build () in
      List.iter
        (fun (spelling, n) ->
          if not (same_dup_diagnostics n) then
            Alcotest.failf "%s (%s): dup diagnostics differ"
              entry.Nano_circuits.Suite.name spelling)
        [ ("built", netlist); ("BLIF", blif_spelling netlist) ])
    Nano_circuits.Suite.all

let seeds = QCheck2.Gen.(int_range 0 1_000_000)

let prop_duplicates_match_reference =
  QCheck2.Test.make ~name:"dup pass equals the reference" ~count:300 seeds
    (fun seed -> same_dup_diagnostics (Helpers.strash_shapes seed))

(* Every node's subcone, not only the reported ones, through one shared
   scratch, so stale state from an earlier cone would show. *)
let prop_cone_digests_match_reference =
  QCheck2.Test.make ~name:"every subcone digest equals the reference"
    ~count:200 seeds (fun seed ->
      let netlist = Helpers.strash_shapes seed in
      let scratch = Nano_synth.Strash.scratch () in
      List.for_all
        (fun id ->
          Nano_synth.Strash.cone_digest scratch netlist id
          = Strash_ref.digest (Duplicates_ref.extract_subcone netlist id))
        (List.init (Netlist.node_count netlist) Fun.id))

(* The full report bytes of the BLIF spellings of alu8 and of a
   3,000-gate random netlist, duplicate-subcone digests included. *)
let test_pinned_dup_reports () =
  let random =
    Nano_circuits.Random_circuit.generate
      ~config:
        {
          Nano_circuits.Random_circuit.default_config with
          inputs = 24;
          gates = 3000;
          outputs = 16;
        }
      ~seed:2005 ()
  in
  List.iter
    (fun (name, netlist, groups, diagnostics, md5) ->
      let report = Lint.run_blif_string (Nano_blif.Blif.to_string netlist) in
      Alcotest.(check int) (name ^ " groups") groups
        (List.length (find_code report "duplicate-subcone"));
      Alcotest.(check int) (name ^ " diagnostics") diagnostics
        (List.length report.Lint.diagnostics);
      Alcotest.(check string) (name ^ " report bytes") md5
        (Digest.to_hex
           (Digest.string (Format.asprintf "%a" Lint.pp_report report))))
    [
      ( "alu8", Helpers.suite_circuit "alu8", 36, 37,
        "ed4304416e017b00a1a7b78f55d1b0c6" );
      ("r3000", random, 49, 2535, "b090e79799dfd9106834a62569e01c37");
    ];
  match
    find_code
      (Lint.run_blif_string
         (Nano_blif.Blif.to_string (Helpers.suite_circuit "alu8")))
      "duplicate-subcone"
  with
  | d :: _ ->
    Alcotest.(check string) "alu8's first group"
      "gates 22, 57 root structurally identical and subcones (strash digest \
       eb941183ecb368417887211dae84df58); the duplicates inflate S0 without \
       adding function"
      d.Diagnostic.message
  | [] -> Alcotest.fail "alu8 has duplicate subcones"

let suite =
  [
    Alcotest.test_case "cycle with witness" `Quick test_cycle_detected;
    Alcotest.test_case "dangling net" `Quick test_dangling_net;
    Alcotest.test_case "constant cone" `Quick test_constant_cone;
    Alcotest.test_case "duplicate subcone" `Quick test_duplicate_subcone;
    Alcotest.test_case "fan-in overflow" `Quick test_fanin_overflow;
    Alcotest.test_case "duplicate driver" `Quick test_duplicate_driver;
    Alcotest.test_case "undefined signal + bound domains" `Quick
      test_undefined_and_bound_domains;
    Alcotest.test_case "stable JSON" `Quick test_json_stable;
    Alcotest.test_case "service = direct run" `Quick
      test_service_matches_direct_run;
    Alcotest.test_case "preflight only when noisy" `Quick
      test_preflight_only_when_noisy;
    Helpers.qcheck prop_clean_netlists_simulate;
    Alcotest.test_case "dup pass = reference on the suite" `Quick
      test_duplicates_match_reference_on_suite;
    Helpers.qcheck prop_duplicates_match_reference;
    Helpers.qcheck prop_cone_digests_match_reference;
    Alcotest.test_case "pinned dup reports" `Quick test_pinned_dup_reports;
  ]
