(* Shared utilities for the test suite. *)

let approx = Alcotest.float 1e-9
let loose = Alcotest.float 1e-6

let check_float = Alcotest.check approx
let check_loose = Alcotest.check loose

let check_in_range msg ~lo ~hi x =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: %g not in [%g, %g]" msg x lo hi

let check_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let qcheck = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* A built-in suite circuit as its generator builds it, and the same
   circuit mapped by [rugged_lite] (fanin <= [max_fanin] when given). *)
let suite_circuit name =
  match Nano_circuits.Suite.find name with
  | Some entry -> entry.Nano_circuits.Suite.build ()
  | None -> Alcotest.failf "missing suite circuit %s" name

let mapped_suite ?max_fanin name =
  Nano_synth.Script.rugged_lite ?max_fanin (suite_circuit name)

(* ------------------------------------------------------------------ *)
(* Random netlists for property tests.                                 *)
(* ------------------------------------------------------------------ *)

module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

(* A random combinational netlist with [inputs] primary inputs and
   [gates] logic gates; deterministic in [seed]. *)
let random_netlist ~seed ~inputs ~gates () =
  let rng = Nano_util.Prng.create ~seed in
  let b = Netlist.Builder.create ~name:(Printf.sprintf "rand%d" seed) () in
  let nodes = ref [] in
  for i = 0 to inputs - 1 do
    nodes := Netlist.Builder.input b (Printf.sprintf "x%d" i) :: !nodes
  done;
  let pick () =
    let arr = Array.of_list !nodes in
    arr.(Nano_util.Prng.int rng ~bound:(Array.length arr))
  in
  for _ = 1 to gates do
    let kind =
      match Nano_util.Prng.int rng ~bound:9 with
      | 0 -> Gate.Not
      | 1 -> Gate.And
      | 2 -> Gate.Or
      | 3 -> Gate.Nand
      | 4 -> Gate.Nor
      | 5 -> Gate.Xor
      | 6 -> Gate.Xnor
      | 7 -> Gate.Majority
      | _ -> Gate.Buf
    in
    let arity =
      match kind with
      | Gate.Not | Gate.Buf -> 1
      | Gate.Majority -> 3
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
        2 + Nano_util.Prng.int rng ~bound:2
      | Gate.Input | Gate.Const _ -> 0
    in
    let fanins = List.init arity (fun _ -> pick ()) in
    nodes := Netlist.Builder.add b kind fanins :: !nodes
  done;
  (* Expose a handful of nodes (always including the newest) as outputs. *)
  let arr = Array.of_list !nodes in
  Netlist.Builder.output b "f0" arr.(0);
  if Array.length arr > 1 then Netlist.Builder.output b "f1" arr.(1);
  Netlist.Builder.output b "f2" (pick ());
  Netlist.Builder.finish b

(* Unbounded per-node BDDs of a netlist on manager [m], primary input
   [i] (declaration order) as variable [i]: the construction
   [Activity.exact] uses, spelled out with the kernel's combinators.
   Only nodes below [upto] (default: all) are built; the rest stay
   FALSE. *)
let node_bdds ?upto m netlist =
  let module Bdd = Nano_bdd.Bdd in
  let n = Netlist.node_count netlist in
  let upto = Option.value upto ~default:n in
  let bdds = Array.make n (Bdd.bdd_false m) in
  List.iteri (fun i id -> bdds.(id) <- Bdd.var m i) (Netlist.inputs netlist);
  Netlist.iter netlist (fun id info ->
      let fan = Array.map (fun f -> bdds.(f)) info.Netlist.fanins in
      let fold op =
        Array.fold_left (op m) fan.(0) (Array.sub fan 1 (Array.length fan - 1))
      in
      let rec at_least k i =
        if k <= 0 then Bdd.bdd_true m
        else if i = Array.length fan then Bdd.bdd_false m
        else Bdd.ite m fan.(i) (at_least (k - 1) (i + 1)) (at_least k (i + 1))
      in
      if id < upto then
        bdds.(id) <-
          (match info.Netlist.kind with
          | Gate.Input -> bdds.(id)
          | Gate.Const b -> Bdd.of_bool m b
          | Gate.Buf -> fan.(0)
          | Gate.Not -> Bdd.bnot m fan.(0)
          | Gate.And -> fold Bdd.band
          | Gate.Or -> fold Bdd.bor
          | Gate.Nand -> Bdd.bnot m (fold Bdd.band)
          | Gate.Nor -> Bdd.bnot m (fold Bdd.bor)
          | Gate.Xor -> fold Bdd.bxor
          | Gate.Xnor -> Bdd.bnot m (fold Bdd.bxor)
          | Gate.Majority -> at_least ((Array.length fan / 2) + 1) 0));
  bdds

let assert_equivalent msg a b =
  match Nano_synth.Equiv.check a b with
  | Nano_synth.Equiv.Equivalent -> ()
  | Nano_synth.Equiv.Counterexample cex ->
    Alcotest.failf "%s: differ at %s" msg
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) cex))

(* Evaluate one netlist output as an int given integer operand encoding
   helpers; used by arithmetic-circuit tests. *)
let eval_outputs netlist bindings = Netlist.eval netlist bindings

let nat_of_bits bits =
  List.fold_left (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc) 0 bits

(* A random netlist that exercises every strash folding rule: several
   constant nodes per value (the extra ones from [Builder.add]), buffers,
   inputs declared between gates, majorities up to 7 wide over
   constants, AND/OR/XOR families with repeated and complemented fanins,
   and outputs driven by constants. Deterministic in [seed]. *)
let folding_netlist ~seed ~gates () =
  let module B = Netlist.Builder in
  let rng = Nano_util.Prng.create ~seed in
  let int bound = Nano_util.Prng.int rng ~bound in
  let b = B.create ~name:(Printf.sprintf "fold%d" seed) () in
  let pool = ref [||] in
  let push x = pool := Array.append !pool [| x |] in
  let pick () = !pool.(int (Array.length !pool)) in
  for i = 0 to 1 + int 4 do
    push (B.input b (Printf.sprintf "x%d" i))
  done;
  push (B.const b false);
  push (B.const b true);
  for g = 1 to gates do
    match int 14 with
    | 0 -> push (B.input b (Printf.sprintf "late%d" g))
    | 1 -> push (B.add b (Gate.Const (int 2 = 0)) [])
    | _ ->
      let kind =
        [| Gate.Not; Gate.Buf; Gate.And; Gate.Or; Gate.Nand; Gate.Nor;
           Gate.Xor; Gate.Xnor; Gate.Majority |].(int 9)
      in
      let arity =
        match kind with
        | Gate.Not | Gate.Buf -> 1
        | Gate.Majority -> 3 + (2 * int 3)
        | _ -> 2 + int 5
      in
      let fanins = Array.init arity (fun _ -> pick ()) in
      if arity > 1 then begin
        match int 3 with
        | 0 -> fanins.(1) <- fanins.(0)
        | 1 ->
          let inverted = B.not_ b fanins.(0) in
          push inverted;
          fanins.(1) <- inverted
        | _ -> ()
      end;
      push (B.add b kind (Array.to_list fanins))
  done;
  let newest = !pool.(Array.length !pool - 1) in
  B.output b "f0" newest;
  for k = 1 to int 4 do
    B.output b (Printf.sprintf "f%d" k)
      (if int 4 = 0 then B.const b (int 2 = 0) else pick ())
  done;
  B.finish b

(* Random netlists of every shape the strash oracles cover, by seed:
   [random_netlist]s, [Random_circuit]s of varied configs, BLIF round
   trips of both (covers become shared NOTs and AND/OR trees), and
   [folding_netlist]s. *)
let strash_shapes seed =
  let rng = Nano_util.Prng.create ~seed in
  let int bound = Nano_util.Prng.int rng ~bound in
  let random_circuit () =
    Nano_circuits.Random_circuit.generate
      ~config:
        {
          Nano_circuits.Random_circuit.inputs = 1 + int 12;
          gates = int 150;
          outputs = 1 + int 5;
          allow_majority = int 2 = 0;
          max_fanin = 2 + int 4;
        }
      ~seed ()
  in
  let round_trip n =
    match Nano_blif.Blif.parse_string (Nano_blif.Blif.to_string n) with
    | Ok n -> n
    | Error _ -> Alcotest.failf "BLIF round trip of %s failed" (Netlist.name n)
  in
  match seed mod 5 with
  | 0 -> random_netlist ~seed ~inputs:(2 + int 7) ~gates:(int 60) ()
  | 1 -> random_circuit ()
  | 2 ->
    round_trip (random_netlist ~seed ~inputs:(2 + int 7) ~gates:(int 40) ())
  | 3 -> round_trip (random_circuit ())
  | _ -> folding_netlist ~seed ~gates:(int 80) ()

(* A BLIF text with one extra, unused primary input [pad<k>] declared
   just before [.outputs], the way the explore benchmark makes every
   visit to a suite circuit a new circuit. *)
let padded_blif text k =
  let marker = "\n.outputs" in
  let rec find i =
    if String.sub text i (String.length marker) = marker then i
    else find (i + 1)
  in
  let at = find 0 in
  String.sub text 0 at ^ Printf.sprintf " pad%d" k
  ^ String.sub text at (String.length text - at)
