module Bdd = Nano_bdd.Bdd
module TT = Nano_logic.Truth_table
module Std = Std_functions

let test_terminals () =
  let m = Bdd.manager () in
  Alcotest.(check bool) "true is true" true (Bdd.is_true m (Bdd.bdd_true m));
  Alcotest.(check bool) "false is false" true
    (Bdd.is_false m (Bdd.bdd_false m));
  Alcotest.(check bool) "distinct" false
    (Bdd.equal (Bdd.bdd_true m) (Bdd.bdd_false m));
  Alcotest.(check int) "const size 0" 0 (Bdd.size m (Bdd.bdd_true m))

let test_var () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 in
  Alcotest.(check bool) "eval x=1" true (Bdd.eval m x (fun _ -> true));
  Alcotest.(check bool) "eval x=0" false (Bdd.eval m x (fun _ -> false));
  Alcotest.(check int) "size 1" 1 (Bdd.size m x);
  Alcotest.(check bool) "nvar is complement" true
    (Bdd.equal (Bdd.nvar m 0) (Bdd.bnot m x))

let test_hash_consing () =
  let m = Bdd.manager () in
  let a = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check bool) "structural sharing" true (Bdd.equal a b);
  (* commuted form must also be canonical *)
  let c = Bdd.band m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "canonical commutation" true (Bdd.equal a c)

let test_boolean_ops () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let check name bdd expected_tt =
    Alcotest.(check bool) name true
      (TT.equal (Bdd.to_truth_table m ~arity:2 bdd) expected_tt)
  in
  let tx = TT.var ~arity:2 0 and ty = TT.var ~arity:2 1 in
  check "and" (Bdd.band m x y) TT.(tx &&& ty);
  check "or" (Bdd.bor m x y) TT.(tx ||| ty);
  check "xor" (Bdd.bxor m x y) TT.(tx ^^^ ty);
  check "nand" (Bdd.bnand m x y) TT.(lnot (tx &&& ty));
  check "nor" (Bdd.bnor m x y) TT.(lnot (tx ||| ty));
  check "xnor" (Bdd.bxnor m x y) TT.(lnot (tx ^^^ ty));
  check "imply" (Bdd.bimply m x y) TT.(lnot tx ||| ty)

let test_ite () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.ite m x y z in
  Alcotest.(check bool) "ite(1,y,_) = y" true
    (Bdd.eval m f (fun v -> v = 0 || v = 1));
  Alcotest.(check bool) "ite(0,_,z) = z at z=0" false
    (Bdd.eval m f (fun v -> v = 1));
  (* ite(f, t, f) = f when branches are constants of f *)
  Alcotest.(check bool) "ite(x,1,0)=x" true
    (Bdd.equal (Bdd.ite m x (Bdd.bdd_true m) (Bdd.bdd_false m)) x)

let test_restrict_quantify () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.band m x y in
  Alcotest.(check bool) "f|x=1 = y" true
    (Bdd.equal (Bdd.restrict m f ~var:0 ~value:true) y);
  Alcotest.(check bool) "f|x=0 = 0" true
    (Bdd.is_false m (Bdd.restrict m f ~var:0 ~value:false));
  Alcotest.(check bool) "exists x. x&y = y" true
    (Bdd.equal (Bdd.exists m ~var:0 f) y);
  Alcotest.(check bool) "forall x. x&y = 0" true
    (Bdd.is_false m (Bdd.forall m ~var:0 f))

let test_compose () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  (* substitute (y | z) for x in x & y *)
  let f = Bdd.band m x y in
  let g = Bdd.bor m y z in
  let composed = Bdd.compose m f ~var:0 g in
  let expected = Bdd.band m g y in
  Alcotest.(check bool) "compose" true (Bdd.equal composed expected)

let test_support_size () =
  let m = Bdd.manager () in
  let f = Bdd.bxor m (Bdd.var m 0) (Bdd.var m 3) in
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Bdd.support m f);
  Alcotest.(check int) "xor size" 3 (Bdd.size m f)

let test_sat_count () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Helpers.check_float "and over 2 vars" 1. (Bdd.sat_count m ~nvars:2 (Bdd.band m x y));
  Helpers.check_float "or over 2 vars" 3. (Bdd.sat_count m ~nvars:2 (Bdd.bor m x y));
  Helpers.check_float "true over 3 vars" 8.
    (Bdd.sat_count m ~nvars:3 (Bdd.bdd_true m));
  Helpers.check_invalid "support exceeds nvars" (fun () ->
      ignore (Bdd.sat_count m ~nvars:1 (Bdd.band m x y)))

let test_probability () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.band m x y in
  Helpers.check_float "p=1/4 uniform" 0.25 (Bdd.probability m ~p:(fun _ -> 0.5) f);
  Helpers.check_float "biased" 0.06
    (Bdd.probability m ~p:(fun v -> if v = 0 then 0.2 else 0.3) f);
  let parity = Bdd.bxor m x y in
  Helpers.check_float "xor uniform" 0.5
    (Bdd.probability m ~p:(fun _ -> 0.5) parity)

let test_truth_table_roundtrip () =
  let m = Bdd.manager () in
  let tt = Std.majority ~arity:5 in
  let bdd = Bdd.of_truth_table m tt in
  Alcotest.(check bool) "roundtrip maj5" true
    (TT.equal tt (Bdd.to_truth_table m ~arity:5 bdd))

let test_parity_bdd_size () =
  (* Parity has a linear-size BDD: 2n - 1 nodes. *)
  let m = Bdd.manager () in
  let n = 10 in
  let f =
    List.fold_left
      (fun acc i -> Bdd.bxor m acc (Bdd.var m i))
      (Bdd.bdd_false m)
      (List.init n (fun i -> i))
  in
  Alcotest.(check int) "parity bdd nodes" ((2 * n) - 1) (Bdd.size m f)

let test_any_sat () =
  let m = Bdd.manager () in
  Alcotest.(check bool) "false unsat" true
    (Bdd.any_sat m (Bdd.bdd_false m) = None);
  Alcotest.(check (option (list (pair int bool)))) "true trivially sat"
    (Some [])
    (Bdd.any_sat m (Bdd.bdd_true m));
  let f =
    Bdd.band m
      (Bdd.bxor m (Bdd.var m 0) (Bdd.var m 1))
      (Bdd.nvar m 2)
  in
  (match Bdd.any_sat m f with
  | None -> Alcotest.fail "satisfiable"
  | Some partial ->
    (* the returned path must actually satisfy f *)
    let assignment v =
      match List.assoc_opt v partial with Some b -> b | None -> false
    in
    Alcotest.(check bool) "assignment satisfies" true (Bdd.eval m f assignment))

let test_to_dot () =
  let m = Bdd.manager () in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  let dot = Bdd.to_dot m ~name:"t" f in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph")

let prop_matches_truth_table =
  QCheck2.Test.make ~name:"BDD ops agree with truth tables"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 5))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity in
      let t1 = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let t2 = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let m = Bdd.manager () in
      let b1 = Bdd.of_truth_table m t1 in
      let b2 = Bdd.of_truth_table m t2 in
      TT.equal TT.(t1 &&& t2) (Bdd.to_truth_table m ~arity:n (Bdd.band m b1 b2))
      && TT.equal TT.(t1 ||| t2) (Bdd.to_truth_table m ~arity:n (Bdd.bor m b1 b2))
      && TT.equal TT.(t1 ^^^ t2) (Bdd.to_truth_table m ~arity:n (Bdd.bxor m b1 b2))
      && TT.equal (TT.lnot t1) (Bdd.to_truth_table m ~arity:n (Bdd.bnot m b1)))

let prop_probability_matches_count =
  QCheck2.Test.make ~name:"uniform probability = satcount / 2^n" ~count:200
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let m = Bdd.manager () in
      let bdd = Bdd.of_truth_table m tt in
      let p = Bdd.probability m ~p:(fun _ -> 0.5) bdd in
      Nano_util.Math_ext.approx_equal p (TT.signal_probability tt))

let prop_canonical =
  QCheck2.Test.make ~name:"equal functions share one node" ~count:200
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 5))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let n = arity in
      let tt = TT.create ~arity:n (fun _ -> Nano_util.Prng.bool rng) in
      let m = Bdd.manager () in
      let a = Bdd.of_truth_table m tt in
      (* rebuild through a different route: decompose as x&f1 | ~x&f0 *)
      let f1 = Bdd.of_truth_table m (TT.cofactor tt ~var:0 true) in
      let f0 = Bdd.of_truth_table m (TT.cofactor tt ~var:0 false) in
      let b = Bdd.ite m (Bdd.var m 0) f1 f0 in
      Bdd.equal a b)

(* ------------------------------------------------------------------ *)
(* Bounded apply.                                                      *)
(* ------------------------------------------------------------------ *)

let random_tt rng arity = TT.create ~arity (fun _ -> Nano_util.Prng.bool rng)

let prop_ite_within =
  QCheck2.Test.make ~name:"ite_within = ite under the size limit" ~count:300
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 8))
    (fun (seed, arity) ->
      let rng = Nano_util.Prng.create ~seed in
      let limit = Nano_util.Prng.int rng ~bound:((1 lsl arity) + 1) in
      let m = Bdd.manager () in
      let t1 = random_tt rng arity
      and t2 = random_tt rng arity
      and t3 = random_tt rng arity in
      let f = Bdd.of_truth_table m t1
      and g = Bdd.of_truth_table m t2
      and h = Bdd.of_truth_table m t3 in
      let before = Bdd.node_count m in
      let bounded = Bdd.ite_within m ~limit f g h in
      let grown = Bdd.node_count m - before in
      let full = Bdd.ite m f g h in
      let fits = Bdd.size m full <= limit in
      let agrees =
        match bounded with
        | Some r -> fits && Bdd.equal r full
        | None -> (not fits) && grown <= limit + 1
      in
      (* Whatever the call left behind, later applies on the same
         manager stay exact, on old operands and on fresh ones. *)
      let t4 = random_tt rng arity and t5 = random_tt rng arity in
      let a = Bdd.of_truth_table m t4 and b = Bdd.of_truth_table m t5 in
      let tt x = Bdd.to_truth_table m ~arity x in
      agrees
      && TT.equal TT.((t1 &&& t2) ||| (lnot t1 &&& t3)) (tt full)
      && TT.equal TT.(t4 &&& t5) (tt (Bdd.band m a b))
      && TT.equal TT.(t4 ||| t5) (tt (Bdd.bor m a b))
      && TT.equal TT.(t4 ^^^ t5) (tt (Bdd.bxor m a b))
      && TT.equal TT.(t1 ^^^ t5) (tt (Bdd.bxor m f b)))

let test_ite_within_blowup () =
  (* The middle product bit of an 8x8 array multiplier has a large
     diagram under the natural order: its last gate, applied under a
     small limit, must stop after limit + 1 new nodes instead of
     building the diagram the limit would reject anyway. *)
  let netlist = Nano_circuits.Multipliers.array_multiplier ~width:8 in
  let root = List.assoc "p7" (Nano_netlist.Netlist.outputs netlist) in
  let info = Nano_netlist.Netlist.info netlist root in
  let m = Bdd.manager () in
  let bdds = Helpers.node_bdds ~upto:root m netlist in
  let fan = Array.map (fun f -> bdds.(f)) info.Nano_netlist.Netlist.fanins in
  Alcotest.(check int) "two-input gate" 2 (Array.length fan);
  let f, g, h =
    match info.Nano_netlist.Netlist.kind with
    | Nano_netlist.Gate.Xor -> (fan.(0), Bdd.bnot m fan.(1), fan.(1))
    | Nano_netlist.Gate.And -> (fan.(0), fan.(1), Bdd.bdd_false m)
    | Nano_netlist.Gate.Or -> (fan.(0), Bdd.bdd_true m, fan.(1))
    | _ -> Alcotest.fail "unexpected gate kind driving p7"
  in
  let limit = 64 in
  let before = Bdd.node_count m in
  Alcotest.(check bool) "aborted" true (Bdd.ite_within m ~limit f g h = None);
  let aborted_growth = Bdd.node_count m - before in
  Alcotest.(check bool) "aborted after at most limit + 1 nodes" true
    (aborted_growth <= limit + 1);
  let before = Bdd.node_count m in
  let full = Bdd.ite m f g h in
  Alcotest.(check bool) "the full diagram is far over the limit" true
    (Bdd.size m full > 4 * limit);
  Alcotest.(check bool) "and costs far more to build" true
    (Bdd.node_count m - before > 4 * (limit + 1));
  Alcotest.(check bool) "a generous limit admits it" true
    (Bdd.ite_within m ~limit:(Bdd.size m full) f g h = Some full)

let test_ite_within_edges () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let t = Bdd.bdd_true m and f = Bdd.bdd_false m in
  (* Constants fit any limit, even a negative one, as with size_within. *)
  Alcotest.(check bool) "x & ~x under limit 0" true
    (Bdd.ite_within m ~limit:0 x (Bdd.bnot m x) f = Some f);
  Alcotest.(check bool) "constant under a negative limit" true
    (Bdd.ite_within m ~limit:(-1) t f t = Some f);
  Alcotest.(check bool) "x & y over a negative limit" true
    (Bdd.ite_within m ~limit:(-1) x y f = None);
  (* An existing result is still measured: nothing is built, yet x | y
     has two nodes. *)
  let xy = Bdd.bor m x y in
  Alcotest.(check bool) "existing result over the limit" true
    (Bdd.ite_within m ~limit:1 x t y = None);
  Alcotest.(check bool) "existing result within the limit" true
    (Bdd.ite_within m ~limit:2 x t y = Some xy);
  Alcotest.(check bool) "max_int limit" true
    (Bdd.ite_within m ~limit:max_int x y f = Some (Bdd.band m x y))

let test_probability_fn_shared () =
  (* One evaluator across roots gives the same bits as a fresh
     evaluation per root, also off the dyadic grid, and keeps working
     as the manager grows past its first capacity. *)
  let m = Bdd.manager ~initial_capacity:4 () in
  let p v = 0.1 +. (0.07 *. float_of_int v) in
  let eval = Bdd.probability_fn m ~p in
  let roots = ref [] in
  let acc = ref (Bdd.bdd_false m) in
  for i = 0 to 9 do
    acc := Bdd.bxor m !acc (Bdd.band m (Bdd.var m i) (Bdd.var m ((i + 3) mod 10)));
    roots := !acc :: !roots;
    ignore (eval !acc)
  done;
  List.iter
    (fun r ->
      Alcotest.(check bool) "bit-identical" true
        (Int64.equal (Int64.bits_of_float (eval r))
           (Int64.bits_of_float (Bdd.probability m ~p r))))
    !roots

let suite =
  [
    Alcotest.test_case "terminals" `Quick test_terminals;
    Alcotest.test_case "var" `Quick test_var;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "boolean ops" `Quick test_boolean_ops;
    Alcotest.test_case "ite" `Quick test_ite;
    Alcotest.test_case "restrict/quantify" `Quick test_restrict_quantify;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "support/size" `Quick test_support_size;
    Alcotest.test_case "sat_count" `Quick test_sat_count;
    Alcotest.test_case "probability" `Quick test_probability;
    Alcotest.test_case "truth table roundtrip" `Quick test_truth_table_roundtrip;
    Alcotest.test_case "parity size" `Quick test_parity_bdd_size;
    Alcotest.test_case "any_sat" `Quick test_any_sat;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Helpers.qcheck prop_matches_truth_table;
    Helpers.qcheck prop_probability_matches_count;
    Helpers.qcheck prop_canonical;
    Helpers.qcheck prop_ite_within;
    Alcotest.test_case "ite_within aborts a real blow-up" `Quick
      test_ite_within_blowup;
    Alcotest.test_case "ite_within edge cases" `Quick test_ite_within_edges;
    Alcotest.test_case "shared probability evaluator" `Quick
      test_probability_fn_shared;
  ]
