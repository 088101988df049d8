module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

(* A reference half-adder used by several tests. *)
let half_adder () =
  let b = B.create ~name:"ha" () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b "sum" (B.xor2 b x y);
  B.output b "carry" (B.and2 b x y);
  B.finish b

let test_builder_basics () =
  let n = half_adder () in
  Alcotest.(check string) "name" "ha" (Netlist.name n);
  Alcotest.(check int) "nodes" 4 (Netlist.node_count n);
  Alcotest.(check int) "size" 2 (Netlist.size n);
  Alcotest.(check int) "depth" 1 (Netlist.depth n);
  Alcotest.(check (list string)) "inputs" [ "x"; "y" ] (Netlist.input_names n);
  Alcotest.(check (list string)) "outputs" [ "sum"; "carry" ]
    (List.map fst (Netlist.outputs n))

let test_eval () =
  let n = half_adder () in
  let out = Netlist.eval n [ ("x", true); ("y", true) ] in
  Alcotest.(check bool) "sum" false (List.assoc "sum" out);
  Alcotest.(check bool) "carry" true (List.assoc "carry" out);
  let out = Netlist.eval n [ ("y", false); ("x", true) ] in
  Alcotest.(check bool) "sum 10" true (List.assoc "sum" out);
  Alcotest.(check bool) "carry 10" false (List.assoc "carry" out)

let test_eval_errors () =
  let n = half_adder () in
  Helpers.check_invalid "missing input" (fun () ->
      Netlist.eval n [ ("x", true) ])

let test_builder_validation () =
  let b = B.create () in
  let x = B.input b "x" in
  Helpers.check_invalid "bad arity" (fun () -> B.add b Gate.And [ x ]);
  Helpers.check_invalid "input via add" (fun () -> B.add b Gate.Input []);
  Helpers.check_invalid "fanin out of range" (fun () ->
      B.add b Gate.Not [ 99 ]);
  B.output b "y" x;
  Helpers.check_invalid "duplicate output" (fun () -> B.output b "y" x)

let test_finish_requires_output () =
  let b = B.create () in
  let _ = B.input b "x" in
  Helpers.check_invalid "no outputs" (fun () -> ignore (B.finish b))

let test_const_hash_consing () =
  let b = B.create () in
  let c1 = B.const b true in
  let c2 = B.const b true in
  let c3 = B.const b false in
  Alcotest.(check int) "same node" c1 c2;
  Alcotest.(check bool) "different polarity" true (c1 <> c3);
  B.output b "o" c1;
  ignore (B.finish b)

let test_reduce () =
  let b = B.create () in
  let xs = List.init 7 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let root = B.reduce b Gate.Xor xs in
  B.output b "p" root;
  let n = B.finish b in
  (* A 7-leaf binary tree has 6 gates and depth 3. *)
  Alcotest.(check int) "gates" 6 (Netlist.size n);
  Alcotest.(check int) "depth" 3 (Netlist.depth n);
  (* and computes parity *)
  let check_parity assignment =
    let bindings =
      List.init 7 (fun i ->
          (Printf.sprintf "x%d" i, (assignment lsr i) land 1 = 1))
    in
    let expected =
      Nano_util.Bits.popcount64 (Int64.of_int assignment) land 1 = 1
    in
    Alcotest.(check bool) "parity" expected
      (List.assoc "p" (Netlist.eval n bindings))
  in
  List.iter check_parity [ 0; 1; 3; 127; 85 ]

let test_levels_fanouts () =
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.not_ b x in
  let n2 = B.and2 b x n1 in
  let n3 = B.or2 b n2 n1 in
  B.output b "o" n3;
  let n = B.finish b in
  let lv = Netlist.levels n in
  Alcotest.(check int) "input level" 0 lv.(x);
  Alcotest.(check int) "not level" 1 lv.(n1);
  Alcotest.(check int) "and level" 2 lv.(n2);
  Alcotest.(check int) "or level" 3 lv.(n3);
  let fo = Netlist.fanout_counts n in
  Alcotest.(check int) "x drives 2" 2 fo.(x);
  Alcotest.(check int) "n1 drives 2" 2 fo.(n1);
  Alcotest.(check int) "n3 drives 0" 0 fo.(n3)

let test_average_max_fanin () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let z = B.input b "z" in
  let a = B.add b Gate.And [ x; y; z ] in
  let o = B.or2 b a x in
  B.output b "o" o;
  let n = B.finish b in
  Helpers.check_float "avg fanin" 2.5 (Netlist.average_fanin n);
  Alcotest.(check int) "max fanin" 3 (Netlist.max_fanin n)

let test_transitive_fanin () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let dead = B.not_ b y in
  let live = B.not_ b x in
  B.output b "o" live;
  let n = B.finish b in
  let in_cone = Netlist.transitive_fanin n [ live ] in
  Alcotest.(check bool) "x in cone" true (in_cone x);
  Alcotest.(check bool) "live in cone" true (in_cone live);
  Alcotest.(check bool) "dead not in cone" false (in_cone dead);
  Alcotest.(check bool) "y not in cone" false (in_cone y)

let test_validate () =
  let n = half_adder () in
  (match Netlist.validate n with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid: %s" e);
  ()

let test_buf_not_counted () =
  let b = B.create () in
  let x = B.input b "x" in
  let buf = B.add b Gate.Buf [ x ] in
  let inv = B.not_ b buf in
  B.output b "o" inv;
  let n = B.finish b in
  Alcotest.(check int) "size excludes buf" 1 (Netlist.size n)

let test_to_dot () =
  let dot = Netlist.to_dot (half_adder ()) in
  Alcotest.(check bool) "digraph present" true
    (String.length dot > 7 && String.sub dot 0 7 = "digraph")

let prop_random_netlists_valid =
  QCheck2.Test.make ~name:"random netlists validate" ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:4 ~gates:20 () in
      Netlist.validate n = Ok ())

let prop_eval_nodes_matches_eval =
  QCheck2.Test.make ~name:"eval_nodes agrees with eval" ~count:100
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 15))
    (fun (seed, assignment) ->
      let n = Helpers.random_netlist ~seed ~inputs:4 ~gates:15 () in
      let bits = Array.init 4 (fun i -> (assignment lsr i) land 1 = 1) in
      let values = Netlist.eval_nodes n bits in
      let bindings =
        List.mapi
          (fun i name -> (name, bits.(i)))
          (Netlist.input_names n)
      in
      let by_name = Netlist.eval n bindings in
      List.for_all
        (fun (name, node) -> List.assoc name by_name = values.(node))
        (Netlist.outputs n))

(* The word-level interpreter with the identity hook is the error-free
   evaluation: it equals the compiled kernel ([Bitsim]) word for word,
   and each of its 64 lanes equals the single-vector [eval_nodes]. *)
let prop_eval_words_identity =
  QCheck2.Test.make ~name:"eval_words = Bitsim, lanes = eval_nodes"
    ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let n = Helpers.strash_shapes seed in
      let rng = Nano_util.Prng.create ~seed in
      let input_words =
        Array.init (Netlist.input_count n) (fun _ -> Nano_util.Prng.bits64 rng)
      in
      let values = Array.make (Netlist.node_count n) 0L in
      Netlist.eval_words n ~input_words ~values ~after:(fun _ w -> w);
      values = Nano_sim.Bitsim.eval_words n input_words
      && List.for_all
           (fun lane ->
             let bit w = Nano_util.Bits.get w lane in
             Array.map bit values
             = Netlist.eval_nodes n (Array.map bit input_words))
           (List.init 64 Fun.id))

(* The hook runs once per node in id order, inputs included, and what
   it returns is what the node's fanouts read. *)
let test_eval_words_hook () =
  let n = half_adder () in
  let x = Netlist.find_input n "x" in
  let seen = ref [] in
  let values = Array.make (Netlist.node_count n) 0L in
  Netlist.eval_words n ~input_words:[| 0b1100L; 0b1010L |] ~values
    ~after:(fun id w ->
      seen := id :: !seen;
      if id = x then Int64.lognot w else w);
  Alcotest.(check (list int)) "every node, in id order"
    (List.init (Netlist.node_count n) Fun.id)
    (List.rev !seen);
  let word name = values.(List.assoc name (Netlist.outputs n)) in
  let x' = Int64.lognot 0b1100L in
  Alcotest.(check int64) "sum reads the inverted input"
    (Int64.logxor x' 0b1010L) (word "sum");
  Alcotest.(check int64) "carry reads the inverted input"
    (Int64.logand x' 0b1010L) (word "carry");
  Helpers.check_invalid "input words" (fun () ->
      Netlist.eval_words n ~input_words:[| 0L |] ~values ~after:(fun _ w -> w));
  Helpers.check_invalid "values" (fun () ->
      Netlist.eval_words n ~input_words:[| 0L; 0L |] ~values:[| 0L |]
        ~after:(fun _ w -> w))

(* [unpack (pack n)] is [n] again: the model name, every node's kind,
   fanins and name, the inputs and the named outputs, so the digest. *)
let check_pack_round_trip n =
  let packed = Netlist.pack n in
  let m = Netlist.unpack packed in
  let label = Netlist.name n in
  Alcotest.(check string) (label ^ ": digest") (Netlist.digest n)
    (Netlist.digest m);
  Alcotest.(check string) (label ^ ": name") (Netlist.name n) (Netlist.name m);
  Alcotest.(check int) (label ^ ": nodes") (Netlist.node_count n)
    (Netlist.node_count m);
  Netlist.iter n (fun id info ->
      let info' = Netlist.info m id in
      if
        info.Netlist.kind <> info'.Netlist.kind
        || info.Netlist.fanins <> info'.Netlist.fanins
        || info.Netlist.name <> info'.Netlist.name
      then Alcotest.failf "%s: node %d differs" label id);
  Alcotest.(check (list int)) (label ^ ": inputs") (Netlist.inputs n)
    (Netlist.inputs m);
  Alcotest.(check (list (pair string int)))
    (label ^ ": outputs") (Netlist.outputs n) (Netlist.outputs m);
  Alcotest.(check string) (label ^ ": packs again to the same bytes") packed
    (Netlist.pack m)

let prop_pack_round_trip =
  QCheck2.Test.make ~name:"unpack . pack = id on random netlists" ~count:200
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      check_pack_round_trip (Helpers.strash_shapes seed);
      true)

let test_pack_round_trip_suite () =
  List.iter
    (fun e ->
      let n = e.Nano_circuits.Suite.build () in
      check_pack_round_trip n;
      check_pack_round_trip (Nano_synth.Script.rugged_lite ~max_fanin:3 n))
    Nano_circuits.Suite.all

let test_unpack_rejects () =
  let packed = Netlist.pack (half_adder ()) in
  List.iter
    (fun text ->
      Helpers.check_invalid "malformed" (fun () -> Netlist.unpack text))
    [
      "";
      String.sub packed 0 (String.length packed - 1);
      packed ^ "\000";
      "\255\255\255\255\255\255\255\255\255\255";
    ]

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "eval errors" `Quick test_eval_errors;
    Alcotest.test_case "builder validation" `Quick test_builder_validation;
    Alcotest.test_case "finish requires output" `Quick test_finish_requires_output;
    Alcotest.test_case "const hash consing" `Quick test_const_hash_consing;
    Alcotest.test_case "reduce" `Quick test_reduce;
    Alcotest.test_case "levels/fanouts" `Quick test_levels_fanouts;
    Alcotest.test_case "fanin stats" `Quick test_average_max_fanin;
    Alcotest.test_case "transitive fanin" `Quick test_transitive_fanin;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "buf not counted" `Quick test_buf_not_counted;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Helpers.qcheck prop_random_netlists_valid;
    Helpers.qcheck prop_eval_nodes_matches_eval;
    Helpers.qcheck prop_eval_words_identity;
    Alcotest.test_case "eval_words hook" `Quick test_eval_words_hook;
    Helpers.qcheck prop_pack_round_trip;
    Alcotest.test_case "pack round trip: suite and mapped suite" `Quick
      test_pack_round_trip_suite;
    Alcotest.test_case "unpack rejects malformed bytes" `Quick
      test_unpack_rejects;
  ]
