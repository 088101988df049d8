module Blif = Nano_blif.Blif
module Netlist = Nano_netlist.Netlist

let parse_ok src =
  match Blif.parse_string src with
  | Ok n -> n
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Blif.pp_error e)

let parse_err src =
  match Blif.parse_string src with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e

let test_simple_and () =
  let n = parse_ok ".model a\n.inputs x y\n.outputs f\n.names x y f\n11 1\n.end\n" in
  Alcotest.(check string) "model name" "a" (Netlist.name n);
  let out b1 b2 = List.assoc "f" (Netlist.eval n [ ("x", b1); ("y", b2) ]) in
  Alcotest.(check bool) "11" true (out true true);
  Alcotest.(check bool) "10" false (out true false)

let test_off_set_cover () =
  (* NAND written as an OFF-set cover. *)
  let n = parse_ok ".model a\n.inputs x y\n.outputs f\n.names x y f\n11 0\n.end\n" in
  let out b1 b2 = List.assoc "f" (Netlist.eval n [ ("x", b1); ("y", b2) ]) in
  Alcotest.(check bool) "11 -> 0" false (out true true);
  Alcotest.(check bool) "01 -> 1" true (out false true)

let test_multi_cube () =
  (* XOR as two cubes. *)
  let n = parse_ok ".model x\n.inputs a b\n.outputs f\n.names a b f\n01 1\n10 1\n.end\n" in
  let out b1 b2 = List.assoc "f" (Netlist.eval n [ ("a", b1); ("b", b2) ]) in
  Alcotest.(check bool) "01" true (out false true);
  Alcotest.(check bool) "11" false (out true true)

let test_constants () =
  let n =
    parse_ok ".model c\n.inputs x\n.outputs one zero\n.names one\n1\n.names zero\n.end\n"
  in
  let out = Netlist.eval n [ ("x", false) ] in
  Alcotest.(check bool) "const 1" true (List.assoc "one" out);
  Alcotest.(check bool) "const 0" false (List.assoc "zero" out)

let test_chained_names () =
  (* g defined after f uses it: order independence. *)
  let src =
    ".model chain\n.inputs a b\n.outputs f\n.names g a f\n11 1\n.names a b g\n1- 1\n-1 1\n.end\n"
  in
  let n = parse_ok src in
  (* f = (a|b) & a = a *)
  let out b1 b2 = List.assoc "f" (Netlist.eval n [ ("a", b1); ("b", b2) ]) in
  Alcotest.(check bool) "a=1" true (out true false);
  Alcotest.(check bool) "a=0" false (out false true)

let test_continuation_and_comments () =
  let src =
    "# a comment\n.model k\n.inputs a \\\nb\n.outputs f\n.names a b f  # trailing\n11 1\n.end\n"
  in
  let n = parse_ok src in
  Alcotest.(check (list string)) "both inputs" [ "a"; "b" ]
    (Netlist.input_names n)

let test_errors () =
  let e = parse_err ".model m\n.inputs a\n.outputs f\n.latch a f\n.end\n" in
  Alcotest.(check bool) "latch rejected" true
    (String.length e.Blif.message > 0);
  ignore (parse_err ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n");
  (* duplicate definition *)
  ignore (parse_err ".model m\n.inputs a\n.outputs f\n.end\n");
  (* f never defined *)
  ignore
    (parse_err ".model m\n.inputs a\n.outputs f\n.names f g\n1 1\n.names g f\n1 1\n.end\n")
(* combinational cycle *)

let test_mixed_polarity_rejected () =
  ignore
    (parse_err ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n")

let test_roundtrip_suite () =
  (* Write out and re-read every suite circuit; must stay equivalent. *)
  List.iter
    (fun entry ->
      let original = entry.Nano_circuits.Suite.build () in
      let text = Blif.to_string original in
      match Blif.parse_string text with
      | Error e ->
        Alcotest.failf "%s reparse failed at line %d: %s"
          entry.Nano_circuits.Suite.name e.Blif.line e.Blif.message
      | Ok reparsed ->
        Helpers.assert_equivalent entry.Nano_circuits.Suite.name original
          reparsed)
    (* keep the test fast: skip the two largest generators *)
    (List.filter
       (fun e ->
         not
           (List.mem e.Nano_circuits.Suite.name [ "mult16"; "rca32" ]))
       Nano_circuits.Suite.all)

let prop_random_roundtrip =
  QCheck2.Test.make ~name:"random netlist BLIF roundtrip" ~count:40
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:4 ~gates:12 () in
      match Blif.parse_string (Blif.to_string n) with
      | Error _ -> false
      | Ok reparsed -> begin
        match Nano_synth.Equiv.check n reparsed with
        | Nano_synth.Equiv.Equivalent -> true
        | Nano_synth.Equiv.Counterexample _ -> false
      end)

let suite =
  [
    Alcotest.test_case "simple and" `Quick test_simple_and;
    Alcotest.test_case "off-set cover" `Quick test_off_set_cover;
    Alcotest.test_case "multi cube" `Quick test_multi_cube;
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "chained names" `Quick test_chained_names;
    Alcotest.test_case "continuations/comments" `Quick
      test_continuation_and_comments;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "mixed polarity" `Quick test_mixed_polarity_rejected;
    Alcotest.test_case "suite roundtrip" `Quick test_roundtrip_suite;
    Helpers.qcheck prop_random_roundtrip;
  ]

(* ------------------------------------------------------------------ *)
(* Differential checks against the pre-rewrite reader (Blif_ref).       *)
(* ------------------------------------------------------------------ *)

(* What a reader makes of a text: the netlist's name, digest and
   interface, or the error. Every elaborated netlist must validate. *)
type outcome =
  | Built of string * string * string list * string list
  | Failed of int * string

let outcome_of = function
  | Ok n -> (
    match Netlist.validate n with
    | Error msg -> Alcotest.failf "elaborated netlist invalid: %s" msg
    | Ok () ->
      Built
        ( Netlist.name n,
          Netlist.digest n,
          Netlist.input_names n,
          List.map fst (Netlist.outputs n) ))
  | Error e -> Failed (e.Blif.line, e.Blif.message)

let dup_prefix = "Netlist.Builder.output: duplicate "

(* The reference's outcome, with its one intended difference: it lets
   [Netlist.Builder.output] raise on a repeated output name, where the
   reader reports a parse error at the repeat's declaration line. *)
let reference text =
  match Blif_ref.parse_string text with
  | r -> outcome_of r
  | exception Invalid_argument msg
    when String.starts_with ~prefix:dup_prefix msg ->
    let m = Blif_ref.parse_model (Blif_ref.tokenize_lines text) in
    let rec first_repeat seen = function
      | [] -> Alcotest.fail "no repeated output behind the exception"
      | (o, line) :: rest ->
        if List.mem o seen then Failed (line, "duplicate output " ^ o)
        else first_repeat (o :: seen) rest
    in
    first_repeat [] m.Blif_ref.m_outputs

let pp_outcome ppf = function
  | Built (name, digest, ins, outs) ->
    Format.fprintf ppf "%s %s in=[%s] out=[%s]" name digest
      (String.concat " " ins) (String.concat " " outs)
  | Failed (line, msg) -> Format.fprintf ppf "line %d: %s" line msg

let agrees text =
  let expected = reference text and actual = outcome_of (Blif.parse_string text) in
  if expected <> actual then
    QCheck2.Test.fail_reportf "parse_string differs on %S:@.reference %a@.reader    %a"
      text pp_outcome expected pp_outcome actual;
  let expected = Blif_ref.parse_raw text and actual = Blif.parse_raw text in
  if expected <> actual then
    QCheck2.Test.fail_reportf "parse_raw differs on %S" text;
  true

let suite_texts =
  lazy
    (List.map
       (fun e -> Blif.to_string (e.Nano_circuits.Suite.build ()))
       Nano_circuits.Suite.all)

let random_text seed =
  let rng = Random.State.make [| seed |] in
  let int bound = Random.State.int rng bound in
  Blif.to_string
    (match seed mod 2 with
    | 0 ->
      Nano_circuits.Random_circuit.generate
        ~config:
          {
            Nano_circuits.Random_circuit.inputs = 1 + int 12;
            gates = int 120;
            outputs = 1 + int 5;
            allow_majority = int 2 = 0;
            max_fanin = 2 + int 4;
          }
        ~seed ()
    | _ -> Helpers.random_netlist ~seed ~inputs:(1 + int 6) ~gates:(int 30) ())

(* Small texts that reach every directive, cover shape and error. *)
let seeds_texts =
  [
    ".model a\n.inputs x y\n.outputs f\n.names x y f\n11 1\n.end\n";
    ".model a\n.inputs x y\n.outputs f g\n.names x y f\n0- 0\n-0 0\n.names f x g\n1- 1\n-1 1\n";
    ".model c\n.inputs x\n.outputs one zero inv\n.names one\n1\n.names zero\n.names inv\n0\n";
    ".model m\n.inputs a b c d\n.outputs f\n.names a b c d f\n1111 1\n0000 1\n1-0- 1\n";
    "# c\n.model k\n.inputs a \\\nb\n.outputs f\n.names a b f  # t\n11 1\n.end\n";
    ".model k\r\n.inputs a b\r\n.outputs f\r\n.names a b f\r\n1- 1\r\n-1 1\r\n";
    ".model m\n.inputs a\n.outputs f\n.names f g\n1 1\n.names g f\n1 1\n";
    ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n";
    ".model m\n.inputs a a\n.outputs f\n.names a f\n1 1\n";
    ".model d\n.inputs a b\n.outputs f f\n.names a b f\n11 1\n";
    ".model d\n.inputs a b\n.outputs f g\n.outputs f\n.names a b f\n11 1\n.names a g\n0 1\n";
    ".inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n";
    ".model m\n.inputs a\n.outputs f\n.latch a f\n";
    ".model m\n.inputs a b\n.outputs f\n.names a b f\n1x 1\n";
    ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n";
    "\\\n.model m \\\n\\\n.inputs a\n.outputs f \\ \t\r\n.names a f\n1 1 \\";
  ]

let suite_texts_agree () =
  List.iter (fun t -> ignore (agrees t)) (Lazy.force suite_texts);
  List.iter (fun t -> ignore (agrees t)) seeds_texts

let prop_random_texts =
  QCheck2.Test.make ~name:"reader = reference on random BLIFs" ~count:150
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed -> agrees (random_text seed))

let prop_padded =
  QCheck2.Test.make ~name:"reader = reference on padded suite spellings"
    ~count:30
    QCheck2.Gen.(pair (int_range 0 21) (int_range 0 (1 lsl 30)))
    (fun (i, k) ->
      agrees (Helpers.padded_blif (List.nth (Lazy.force suite_texts) i) k))

(* Byte-level edits that stress the lexer and the model pass. Half keep
   the text well formed (blanks, tabs, CRs, comments and continuations
   where a blank was); the rest insert, delete or replace bytes, or
   repeat or drop whole lines. *)
let mutate rng text =
  let benign = [| " \\\n"; "\\\n"; "\t"; "  "; " \\\r\n"; " \\ \t\n" |] in
  let trailing = [| "\r"; " "; "\t"; " # c"; "#"; " \r\t" |] in
  let pieces =
    [| "\n"; " "; "\t"; "\r"; "\r\n"; "\\"; "\\\n"; " \\\n"; "#"; "."; "0";
       "1"; "-"; "2"; "x"; "a"; "f"; "\n.names a b f\n"; ".names "; ".names";
       ".inputs "; ".outputs "; "\n.outputs f\n"; ".model m "; ".end";
       ".latch"; ".exdc"; ".subckt"; ".search"; ".bogus"; " 1"; "11 1\n";
       "0 0\n"; "1\n"; "\\\r\n" |]
  in
  let int bound = Random.State.int rng bound in
  let pick a = a.(int (Array.length a)) in
  let text = ref text in
  for _ = 0 to int 3 do
    let s = !text in
    let n = String.length s in
    let at = int (n + 1) in
    let splice a b piece = String.sub s 0 a ^ piece ^ String.sub s b (n - b) in
    let next c =
      match String.index_from_opt s at c with Some j -> Some j | None -> None
    in
    let line_end i =
      match String.index_from_opt s i '\n' with Some j -> j + 1 | None -> n
    in
    let line_start i =
      match String.rindex_from_opt s (max 0 (i - 1)) '\n' with
      | Some j when i > 0 -> j + 1
      | _ -> 0
    in
    text :=
      match int 8 with
      | 0 | 1 -> (
        match next ' ' with Some j -> splice j (j + 1) (pick benign) | None -> s)
      | 2 -> (
        match next '\n' with Some j -> splice j j (pick trailing) | None -> s)
      | 3 -> splice at at (pick pieces)
      | 4 -> splice at (min n (at + 1 + int 6)) ""
      | 5 when at < n -> splice at (at + 1) (pick pieces)
      | 6 ->
        let a = line_start at and b = line_end at in
        let dst = line_start (int (n + 1)) in
        String.sub s 0 dst ^ String.sub s a (b - a) ^ String.sub s dst (n - dst)
      | _ -> splice (line_start at) (line_end at) ""
  done;
  !text

let prop_mutated =
  QCheck2.Test.make ~name:"reader = reference on mutated BLIFs" ~count:5000
    QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let base =
        match Random.State.int rng 4 with
        | 0 -> List.nth seeds_texts (Random.State.int rng (List.length seeds_texts))
        | 1 -> random_text (Random.State.int rng 100_000)
        | 2 -> List.nth (Lazy.force suite_texts) 0
        | _ ->
          Blif.to_string
            (Helpers.random_netlist ~seed ~inputs:(1 + Random.State.int rng 4)
               ~gates:(Random.State.int rng 8) ())
      in
      agrees (mutate rng base))

let test_duplicate_output () =
  let e = parse_err ".model d\n.inputs a b\n.outputs f f\n.names a b f\n11 1\n" in
  Alcotest.(check string) "message" "line 3: duplicate output f"
    (Format.asprintf "%a" Blif.pp_error e);
  (* Resolution errors of earlier outputs keep their precedence. *)
  let e =
    parse_err ".model d\n.inputs a\n.outputs g f\n.outputs f\n.names a f\n1 1\n"
  in
  Alcotest.(check string) "undefined output first" "line 3: signal g is never defined"
    (Format.asprintf "%a" Blif.pp_error e);
  let e =
    parse_err ".model d\n.inputs a\n.outputs f\n.names a f\n1 1\n.outputs a f\n"
  in
  Alcotest.(check string) "repeat on a later line" "line 6: duplicate output f"
    (Format.asprintf "%a" Blif.pp_error e)

let test_one_model_two_views () =
  let text = ".model v\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.names a dead\n1 1\n" in
  match Blif.read text with
  | Error _ -> Alcotest.fail "read failed"
  | Ok m ->
    Alcotest.(check bool) "raw = parse_raw" true
      (Ok (Blif.raw m) = Blif.parse_raw text);
    (match (Blif.elaborate m, Blif.parse_string text) with
    | Ok a, Ok b ->
      Alcotest.(check string) "elaborate = parse_string" (Netlist.digest a)
        (Netlist.digest b)
    | _ -> Alcotest.fail "elaboration failed");
    Alcotest.(check int) "dead cover still in the raw view" 2
      (List.length (Blif.raw m).Blif.Raw.defs)

let suite =
  suite
  @ [
      Alcotest.test_case "duplicate output" `Quick test_duplicate_output;
      Alcotest.test_case "one scan, two views" `Quick test_one_model_two_views;
      Alcotest.test_case "suite texts = reference" `Quick suite_texts_agree;
      Helpers.qcheck prop_random_texts;
      Helpers.qcheck prop_padded;
      Helpers.qcheck prop_mutated;
    ]
