module Strash = Nano_synth.Strash
module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

let test_shares_identical_gates () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let a1 = B.and2 b x y in
  let a2 = B.and2 b x y in
  B.output b "o" (B.or2 b a1 a2);
  let n = Strash.run (B.finish b) in
  (* or(a, a) -> a, so only the single AND remains. *)
  Alcotest.(check int) "one gate" 1 (Netlist.size n)

let test_commutative_sharing () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let a1 = B.and2 b x y in
  let a2 = B.and2 b y x in
  B.output b "o" (B.xor2 b a1 a2);
  let n = Strash.run (B.finish b) in
  (* and(x,y) = and(y,x), xor(a,a) = 0. *)
  Alcotest.(check int) "constant folded" 0 (Netlist.size n);
  Alcotest.(check bool) "output is false" true
    (not (List.assoc "o" (Netlist.eval n [ ("x", true); ("y", true) ])))

let test_constant_folding () =
  let b = B.create () in
  let x = B.input b "x" in
  let zero = B.const b false in
  let one = B.const b true in
  B.output b "and0" (B.and2 b x zero);
  B.output b "and1" (B.and2 b x one);
  B.output b "or1" (B.or2 b x one);
  B.output b "xor1" (B.xor2 b x one);
  let n = Strash.run (B.finish b) in
  let out v = Netlist.eval n [ ("x", v) ] in
  List.iter
    (fun v ->
      Alcotest.(check bool) "and0" false (List.assoc "and0" (out v));
      Alcotest.(check bool) "and1" v (List.assoc "and1" (out v));
      Alcotest.(check bool) "or1" true (List.assoc "or1" (out v));
      Alcotest.(check bool) "xor1" (not v) (List.assoc "xor1" (out v)))
    [ true; false ];
  (* and1 should be a wire, xor1 one inverter: 1 gate total *)
  Alcotest.(check int) "only the inverter" 1 (Netlist.size n)

let test_double_negation () =
  let b = B.create () in
  let x = B.input b "x" in
  B.output b "o" (B.not_ b (B.not_ b x));
  let n = Strash.run (B.finish b) in
  Alcotest.(check int) "no gates" 0 (Netlist.size n)

let test_complement_identities () =
  let b = B.create () in
  let x = B.input b "x" in
  let nx = B.not_ b x in
  B.output b "contradiction" (B.and2 b x nx);
  B.output b "tautology" (B.or2 b x nx);
  B.output b "xor_comp" (B.xor2 b x nx);
  let n = Strash.run (B.finish b) in
  let out = Netlist.eval n [ ("x", true) ] in
  Alcotest.(check bool) "x & ~x" false (List.assoc "contradiction" out);
  Alcotest.(check bool) "x | ~x" true (List.assoc "tautology" out);
  Alcotest.(check bool) "x ^ ~x" true (List.assoc "xor_comp" out);
  (* Everything folds to constants; at most the shared inverter may
     linger as dead support for them. *)
  Alcotest.(check bool) "at most the inverter" true (Netlist.size n <= 1)

let test_dead_logic_removed () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let _dead = B.xor2 b x y in
  let _dead2 = B.and2 b x y in
  B.output b "o" (B.not_ b x);
  let n = Strash.run (B.finish b) in
  Alcotest.(check int) "only the live inverter" 1 (Netlist.size n);
  (* inputs survive for interface stability *)
  Alcotest.(check (list string)) "inputs kept" [ "x"; "y" ]
    (Netlist.input_names n)

let test_majority_simplifications () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let one = B.const b true in
  let zero = B.const b false in
  B.output b "maj1xy" (B.maj3 b one x y);
  B.output b "maj0xy" (B.maj3 b zero x y);
  B.output b "majxxy" (B.maj3 b x x y);
  let n = Strash.run (B.finish b) in
  List.iter
    (fun (vx, vy) ->
      let out = Netlist.eval n [ ("x", vx); ("y", vy) ] in
      Alcotest.(check bool) "maj(1,x,y)=x|y" (vx || vy)
        (List.assoc "maj1xy" out);
      Alcotest.(check bool) "maj(0,x,y)=x&y" (vx && vy)
        (List.assoc "maj0xy" out);
      Alcotest.(check bool) "maj(x,x,y)=x" vx (List.assoc "majxxy" out))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_idempotent () =
  let n = Helpers.random_netlist ~seed:99 ~inputs:5 ~gates:40 () in
  let once = Strash.run n in
  let twice = Strash.run once in
  Alcotest.(check int) "size stable" (Netlist.size once) (Netlist.size twice)

(* Node for node: same name, node count and digest (which covers every
   kind, fanin id, input name and output pin), and a valid netlist. *)
let same_netlist ~expected actual =
  (match Netlist.validate actual with
  | Ok () -> ()
  | Error e -> QCheck2.Test.fail_reportf "invalid result: %s" e);
  Netlist.name expected = Netlist.name actual
  && Netlist.node_count expected = Netlist.node_count actual
  && Netlist.digest expected = Netlist.digest actual

let seeds = QCheck2.Gen.(int_range 0 1_000_000)

let prop_run_matches_reference =
  QCheck2.Test.make ~name:"run equals the reference engine" ~count:500 seeds
    (fun seed ->
      let n = Helpers.strash_shapes seed in
      same_netlist ~expected:(Strash_ref.run n) (Strash.run n))

let prop_digest_matches_reference =
  QCheck2.Test.make ~name:"digest equals the reference engine" ~count:500
    seeds (fun seed ->
      let n = Helpers.strash_shapes seed in
      Strash.digest n = Strash_ref.digest n)

let prop_sweep_matches_reference =
  QCheck2.Test.make ~name:"sweep equals the reference sweep" ~count:300 seeds
    (fun seed ->
      let n = Helpers.strash_shapes seed in
      same_netlist ~expected:(Strash_ref.sweep n) (Strash.sweep n))

(* Whether [Strash.run] returns [netlist], one of its own results,
   unchanged. Every rewrite is spent after one run; only a constant node
   can move,
   because a run makes one just before the first wide majority that
   reads it (or after every gate, for an output), and a constant whose
   first reader was folded away sits elsewhere. *)
let settled netlist =
  let is_const id =
    match Netlist.kind netlist id with Gate.Const _ -> true | _ -> false
  in
  let pos = ref (Netlist.input_count netlist) and ok = ref true in
  let placed = Array.make (Netlist.node_count netlist) false in
  let place id =
    if not placed.(id) then begin
      placed.(id) <- true;
      if id <> !pos then ok := false;
      incr pos
    end
  in
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input | Gate.Const _ -> ()
      | _ ->
        Array.iter (fun f -> if is_const f then place f) info.Netlist.fanins;
        place id);
  Array.iter (fun o -> if is_const o then place o) (Netlist.output_ids netlist);
  !ok && !pos = Netlist.node_count netlist

(* [settled] says exactly when a second run changes nothing, and only a
   netlist whose constants feed wide majorities can be unsettled. *)
let prop_idempotent =
  QCheck2.Test.make ~name:"strash idempotent exactly when settled"
    ~count:500 seeds (fun seed ->
      let n = Helpers.strash_shapes seed in
      let once = Strash.run n in
      let again = Netlist.digest (Strash.run once) = Netlist.digest once in
      settled once = again && (seed mod 5 = 4 || again))

(* A constant first made for a wide majority that later folds away sits
   where the second run will not put it. *)
let unsettled () =
  let b = B.create ~name:"unsettled" () in
  let x = Array.init 5 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let one = B.const b true in
  let dead = B.add b Gate.Majority [ x.(0); x.(1); x.(2); x.(3); one ] in
  let folded = B.and2 b dead (B.not_ b dead) in
  let between = B.and2 b x.(0) x.(1) in
  let live = B.add b Gate.Majority [ x.(0); x.(1); x.(2); x.(4); one ] in
  B.output b "folded" folded;
  B.output b "between" between;
  B.output b "live" live;
  B.finish b

let test_unsettled () =
  let once = Strash.run (unsettled ()) in
  Alcotest.(check bool) "not settled" false (settled once);
  Alcotest.(check bool) "a second run moves the constant" true
    (Netlist.digest (Strash.run once) <> Netlist.digest once)

(* [Script.rugged_lite] as it stood before the flat engine: the same
   passes around the reference strash, with [map_only]'s strash of its
   already-strashed input. *)
let reference_rugged_lite ?(collapse_threshold = 10) ~max_fanin netlist =
  let open Nano_synth in
  let simplified = Strash_ref.run netlist in
  let best =
    if List.length (Netlist.inputs simplified) > collapse_threshold then
      simplified
    else
      match
        Collapse.to_truth_tables ~max_inputs:collapse_threshold simplified
      with
      | None -> simplified
      | Some tables ->
        let covers =
          List.map
            (fun (name, tt) -> (name, Quine_mccluskey.minimize_table tt))
            tables
        in
        let input_names = Netlist.input_names simplified in
        let name = Netlist.name simplified in
        let two_level =
          Strash_ref.run (Collapse.of_covers ~name ~input_names covers)
        in
        let factored =
          Strash_ref.run (Factor.netlist_of_covers ~name ~input_names covers)
        in
        let smallest a b = if Netlist.size b < Netlist.size a then b else a in
        smallest (smallest simplified two_level) factored
  in
  Strash_ref.run
    (Fanin_limit.run ~max_fanin (Balance.run (Strash_ref.run best)))

let mapped_digest f n =
  match f n with
  | mapped -> Ok (Netlist.digest mapped)
  | exception Invalid_argument msg -> Error msg

(* [rugged_lite] skips re-strashing its strashed candidate even where
   that would move a constant; the closing strash puts it back. *)
let test_unsettled_rugged_lite () =
  let n = unsettled () in
  Alcotest.(check (result string string)) "rugged_lite, fanin 5"
    (mapped_digest (reference_rugged_lite ~max_fanin:5) n)
    (mapped_digest (Nano_synth.Script.rugged_lite ~max_fanin:5) n)

(* Two-level collapse costs exponential time in the input count, so
   these collapse only up to 6 inputs. *)
let prop_rugged_lite_matches_reference =
  QCheck2.Test.make ~name:"rugged_lite equals the reference flow" ~count:200
    seeds (fun seed ->
      let n = Helpers.strash_shapes seed in
      let max_fanin = 3 + (seed / 5 mod 3 * 2) in
      mapped_digest
        (reference_rugged_lite ~collapse_threshold:6 ~max_fanin)
        n
      = mapped_digest
          (Nano_synth.Script.rugged_lite ~collapse_threshold:6 ~max_fanin)
          n)

let prop_preserves_function =
  QCheck2.Test.make ~name:"strash preserves the function" ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:5 ~gates:30 () in
      match Nano_synth.Equiv.check n (Strash.run n) with
      | Nano_synth.Equiv.Equivalent -> true
      | Nano_synth.Equiv.Counterexample _ -> false)

let prop_never_grows =
  QCheck2.Test.make ~name:"strash never increases size" ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let n = Helpers.random_netlist ~seed ~inputs:5 ~gates:30 () in
      Netlist.size (Strash.run n) <= Netlist.size n)

let suite =
  [
    Alcotest.test_case "shares identical gates" `Quick
      test_shares_identical_gates;
    Alcotest.test_case "commutative sharing" `Quick test_commutative_sharing;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "double negation" `Quick test_double_negation;
    Alcotest.test_case "complement identities" `Quick
      test_complement_identities;
    Alcotest.test_case "dead logic removed" `Quick test_dead_logic_removed;
    Alcotest.test_case "majority simplifications" `Quick
      test_majority_simplifications;
    Alcotest.test_case "idempotent" `Quick test_idempotent;
    Alcotest.test_case "unsettled constant" `Quick test_unsettled;
    Alcotest.test_case "unsettled rugged_lite" `Quick
      test_unsettled_rugged_lite;
    Helpers.qcheck prop_run_matches_reference;
    Helpers.qcheck prop_digest_matches_reference;
    Helpers.qcheck prop_sweep_matches_reference;
    Helpers.qcheck prop_idempotent;
    Helpers.qcheck prop_rugged_lite_matches_reference;
    Helpers.qcheck prop_preserves_function;
    Helpers.qcheck prop_never_grows;
  ]
