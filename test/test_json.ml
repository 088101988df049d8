module Json = Nano_util.Json

let check_parse msg expected input =
  match Json.parse input with
  | Ok v -> Alcotest.(check bool) msg true (v = expected)
  | Error e -> Alcotest.failf "%s: %a" msg Json.pp_error e

let check_rejected msg input =
  match Json.parse input with
  | Ok _ -> Alcotest.failf "%s: expected a parse error for %S" msg input
  | Error _ -> ()

let test_basic_values () =
  check_parse "null" Json.Null "null";
  check_parse "true" (Json.Bool true) " true ";
  check_parse "false" (Json.Bool false) "false";
  check_parse "int" (Json.Int 42) "42";
  check_parse "negative int" (Json.Int (-7)) "-7";
  check_parse "float" (Json.Float 2.5) "2.5";
  check_parse "exponent" (Json.Float 150.) "1.5e2";
  check_parse "string" (Json.String "hi") "\"hi\"";
  check_parse "empty list" (Json.List []) "[ ]";
  check_parse "empty obj" (Json.Obj []) "{ }";
  check_parse "nested"
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Bool false ]);
         ("b", Json.Obj [ ("c", Json.Null) ]);
       ])
    {|{"a":[1,false],"b":{"c":null}}|}

let test_escapes () =
  check_parse "simple escapes"
    (Json.String "a\"b\\c/d\ne\tf")
    {|"a\"b\\c\/d\ne\tf"|};
  check_parse "unicode bmp" (Json.String "A\xc3\xa9") {|"Aé"|};
  check_parse "surrogate pair" (Json.String "\xf0\x9f\x98\x80")
    {|"😀"|};
  (* The printer escapes control characters so output always re-parses. *)
  let s = Json.String "ctl\x01and\x7f" in
  check_parse "printed control chars reparse" s (Json.to_string s)

let test_rejections () =
  check_rejected "empty" "";
  check_rejected "truncated obj" "{\"a\":1";
  check_rejected "truncated list" "[1,";
  check_rejected "truncated string" "\"abc";
  check_rejected "truncated escape" "\"abc\\";
  check_rejected "bad escape" {|"\q"|};
  check_rejected "bad unicode escape" {|"\u12g4"|};
  check_rejected "lone high surrogate" {|"\ud800"|};
  check_rejected "lone low surrogate" {|"\udc00"|};
  check_rejected "high surrogate + non-surrogate" {|"\ud800A"|};
  check_rejected "unescaped control char" "\"a\nb\"";
  check_rejected "duplicate keys" {|{"a":1,"a":2}|};
  check_rejected "trailing garbage" "1 2";
  check_rejected "bare word" "nan";
  check_rejected "missing digits after dot" "1.";
  check_rejected "missing digits in exponent" "1e";
  check_rejected "lone minus" "-";
  check_rejected "missing colon" {|{"a" 1}|};
  check_rejected "trailing comma in list" "[1,]";
  check_rejected "trailing comma in obj" {|{"a":1,}|}

let test_depth_limit () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  check_rejected "nesting bomb" (deep (Json.max_depth + 10));
  (* A modest nesting parses fine. *)
  let ok =
    String.concat "" (List.init 50 (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init 50 (fun _ -> "]"))
  in
  match Json.parse ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 50: %a" Json.pp_error e

let test_duplicate_policy_documented () =
  (* Nested objects may reuse keys of the parent; only siblings clash. *)
  check_parse "same key at different depths"
    (Json.Obj [ ("a", Json.Obj [ ("a", Json.Int 1) ]) ])
    {|{"a":{"a":1}}|}

let test_float_repr () =
  List.iter
    (fun f ->
      let s = Json.float_repr f in
      Alcotest.(check (float 0.)) ("round-trip " ^ s) f (float_of_string s);
      Alcotest.(check bool)
        ("reparses as float: " ^ s)
        true
        (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s))
    [ 0.; 1.; -2.; 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308; 4096. ];
  Helpers.check_invalid "nan rejected" (fun () -> Json.float_repr Float.nan);
  Helpers.check_invalid "inf rejected" (fun () ->
      Json.float_repr Float.infinity)

let test_accessors () =
  let v =
    Json.Obj [ ("x", Json.Int 3); ("y", Json.Float 2.5); ("s", Json.String "z") ]
  in
  Alcotest.(check bool) "member" true (Json.member "x" v = Some (Json.Int 3));
  Alcotest.(check bool) "member missing" true (Json.member "q" v = None);
  Alcotest.(check bool) "int widens" true
    (Option.map Json.to_float (Json.member "x" v) = Some (Some 3.));
  Alcotest.(check bool) "to_string_opt" true
    (Option.map Json.to_string_opt (Json.member "s" v) = Some (Some "z"))

(* ------------------------------------------------------------------ *)
(* Property tests.                                                      *)
(* ------------------------------------------------------------------ *)

let gen_json =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f)
          (map
             (fun f -> if Float.is_finite f then f else 0.5)
             (float_range (-1e9) 1e9));
        map (fun s -> Json.String s) (small_string ~gen:printable);
      ]
  in
  let distinct_keys kvs =
    (* Drop later duplicates so generated objects satisfy the parser's
       duplicate-key policy. *)
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      kvs
  in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
            map
              (fun kvs -> Json.Obj (distinct_keys kvs))
              (list_size (int_range 0 4)
                 (pair (small_string ~gen:printable) (self (n / 2))));
          ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:500 gen_json
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let prop_float_roundtrip =
  QCheck2.Test.make ~name:"floats survive print/parse bit-exactly" ~count:500
    QCheck2.Gen.(float_bound_inclusive 1e12)
    (fun f ->
      let f = if Float.is_finite f then f else 1.25 in
      Json.parse (Json.to_string (Json.Float f)) = Ok (Json.Float f))

(* ------------------------------------------------------------------ *)
(* The string codec against the pre-rewrite one (Json_ref).             *)
(* ------------------------------------------------------------------ *)

(* Bytes that matter to a string codec: quotes, backslashes, control
   characters, DEL and UTF-8 bytes, among plain letters. *)
let nasty_char =
  QCheck2.Gen.(
    frequency
      [
        (6, char_range 'a' 'z');
        ( 2,
          oneofl
            [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000'; '\x1f';
              '\x7f'; ' '; '/'; 'u' ] );
        (1, char_range '\000' '\x1f');
        (1, char_range '\x80' '\xff');
        (1, char);
      ])

let nasty_string = QCheck2.Gen.(string_size ~gen:nasty_char (int_range 0 40))

let rec with_nasty_strings rng = function
  | Json.String _ ->
    Json.String (QCheck2.Gen.generate1 ~rand:rng nasty_string)
  | Json.List l -> Json.List (List.map (with_nasty_strings rng) l)
  | Json.Obj kvs ->
    Json.Obj (List.map (fun (k, v) -> (k, with_nasty_strings rng v)) kvs)
  | v -> v

let prop_encode_reference =
  QCheck2.Test.make ~name:"to_string = reference on nasty strings" ~count:2000
    QCheck2.Gen.(pair gen_json (int_range 0 1_000_000))
    (fun (v, seed) ->
      let v = with_nasty_strings (Random.State.make [| seed |]) v in
      Json.to_string v = Json_ref.to_string v)

(* The body of a string literal built from fragments: plain runs, every
   escape, \u escapes in and around the surrogate ranges or with bad
   hex digits, raw control characters, and an optional closing quote. *)
let string_literal =
  let open QCheck2.Gen in
  let hex4 =
    oneof
      [
        map (Printf.sprintf "%04x") (int_range 0 0xffff);
        map (Printf.sprintf "%04X") (int_range 0xd7f0 0xe010);
        oneofl [ "d83d"; "de00"; "DBFF"; "DC00"; "12g4"; "00"; "zzzz" ];
      ]
  in
  let fragment =
    frequency
      [
        (4, string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        ( 3,
          oneofl
            [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t"; "\\q";
              "\\"; "\\ "; "\x01"; "\n"; "\x7f"; "\xc3\xa9" ] );
        (3, map (fun h -> "\\u" ^ h) hex4);
        (1, map2 (fun a b -> "\\u" ^ a ^ "\\u" ^ b) hex4 hex4);
      ]
  in
  map2
    (fun parts close -> "\"" ^ String.concat "" parts ^ if close then "\"" else "")
    (list_size (int_range 0 8) fragment)
    (frequency [ (5, return true); (1, return false) ])

let same_parse text = Json.parse text = Json_ref.parse text

let prop_decode_literals =
  QCheck2.Test.make ~name:"parse = reference on string literals" ~count:3000
    QCheck2.Gen.(pair string_literal (int_range 0 2))
    (fun (lit, ctx) ->
      let text =
        match ctx with
        | 0 -> lit
        | 1 -> "[" ^ lit ^ ",1]"
        | _ -> "{" ^ lit ^ ":" ^ lit ^ "}"
      in
      same_parse text)

(* Byte edits of encoded documents: every error path of the parser,
   offsets included. *)
let prop_decode_mutated =
  QCheck2.Test.make ~name:"parse = reference on mutated documents" ~count:3000
    QCheck2.Gen.(pair gen_json (int_range 0 1_000_000))
    (fun (v, seed) ->
      let rng = Random.State.make [| seed |] in
      let text = ref (Json.to_string (with_nasty_strings rng v)) in
      let bytes = "\"\\u{}[],: \n\tntf-1.eED8\x01\x7f\xff0" in
      for _ = 0 to Random.State.int rng 3 do
        let s = !text in
        let n = String.length s in
        let at = Random.State.int rng (n + 1) in
        let b = String.make 1 bytes.[Random.State.int rng (String.length bytes)] in
        text :=
          match Random.State.int rng 3 with
          | 0 -> String.sub s 0 at ^ b ^ String.sub s at (n - at)
          | 1 when at < n -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
          | _ when at < n -> String.sub s 0 at ^ b ^ String.sub s (at + 1) (n - at - 1)
          | _ -> String.sub s 0 at
      done;
      same_parse !text)

let suite =
  [
    Alcotest.test_case "basic values" `Quick test_basic_values;
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "rejections" `Quick test_rejections;
    Alcotest.test_case "depth limit" `Quick test_depth_limit;
    Alcotest.test_case "duplicate-key policy" `Quick
      test_duplicate_policy_documented;
    Alcotest.test_case "float repr" `Quick test_float_repr;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Helpers.qcheck prop_roundtrip;
    Helpers.qcheck prop_float_roundtrip;
    Helpers.qcheck prop_encode_reference;
    Helpers.qcheck prop_decode_literals;
    Helpers.qcheck prop_decode_mutated;
  ]
