module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Compiled = Nano_netlist.Compiled

type profile = {
  node_probability : float array;
  node_activity : float array;
  average_gate_activity : float;
  vectors : int;
}

let average_over_gates netlist per_node =
  let total, count =
    Netlist.fold netlist ~init:(0., 0) ~f:(fun (t, c) id info ->
        if Gate.is_logic info.Netlist.kind then (t +. per_node.(id), c + 1)
        else (t, c))
  in
  if count = 0 then 0. else total /. float_of_int count

(* The temporal-independence model, the one place it is written. *)
let activity_of_probability p = 2. *. p *. (1. -. p)

let profile_of_probabilities netlist probs ~vectors =
  let activity = Array.map activity_of_probability probs in
  {
    node_probability = probs;
    node_activity = activity;
    average_gate_activity = average_over_gates netlist activity;
    vectors;
  }

(* The one-counts of a Monte-Carlo run, per node, and the vectors they
   are out of. *)
let ones_counts ~seed ~vectors ~input_probability netlist =
  let rng = Nano_util.Prng.create ~seed in
  let words = Nano_util.Math_ext.ceil_div vectors 64 in
  let n = Netlist.node_count netlist in
  let c = Compiled.of_netlist netlist in
  let block = Compiled.block_width c in
  let ones = Array.make n 0 in
  let values = Compiled.create_values_blocked c in
  (* Blocked sweep over the same stream the pre-compiled loop consumed:
     word [j]'s input draws sit at [j * dpw], addressed positionally, so
     the counters are bit-identical at any block width. *)
  let dpw =
    Netlist.input_count netlist
    * Nano_util.Prng.draws_per_word ~p:input_probability
  in
  let done_words = ref 0 in
  while !done_words < words do
    let bw = min block (words - !done_words) in
    Compiled.draw_input_words_blocked c rng ~offset:0 ~stride:dpw ~width:bw
      ~input_probability ~values;
    Compiled.exec_words_blocked c ~width:bw ~values;
    Compiled.add_ones_counts_blocked c ~width:bw ~values ~into:ones;
    Nano_util.Prng.jump rng ~draws:(bw * dpw);
    done_words := !done_words + bw
  done;
  (ones, words * 64)

let probability ~vectors count = float_of_int count /. float_of_int vectors

let profile_of_ones netlist ones ~vectors =
  profile_of_probabilities netlist (Array.map (probability ~vectors) ones)
    ~vectors

let monte_carlo ?(seed = 0x5eed) ?(vectors = 4096) ?(input_probability = 0.5)
    netlist =
  let ones, vectors = ones_counts ~seed ~vectors ~input_probability netlist in
  profile_of_ones netlist ones ~vectors

(* The default run's one-counts, two bytes a node, little-endian: out of
   4096 vectors, each fits. *)
type counts = string

let monte_carlo_counted netlist =
  let ones, vectors =
    ones_counts ~seed:0x5eed ~vectors:4096 ~input_probability:0.5 netlist
  in
  let packed = Bytes.create (2 * Array.length ones) in
  Array.iteri (fun i c -> Bytes.set_uint16_le packed (2 * i) c) ones;
  (profile_of_ones netlist ones ~vectors, Bytes.unsafe_to_string packed)

let node_activity_of_counts counts =
  Array.init (String.length counts / 2) (fun i ->
      activity_of_probability
        (probability ~vectors:4096 (String.get_uint16_le counts (2 * i))))

let exact ?(input_probability = 0.5) netlist =
  let m = Nano_bdd.Bdd.manager () in
  let n = Netlist.node_count netlist in
  let bdds = Array.make n (Nano_bdd.Bdd.bdd_false m) in
  let input_var = Hashtbl.create 16 in
  List.iteri
    (fun i id -> Hashtbl.replace input_var id (Nano_bdd.Bdd.var m i))
    (Netlist.inputs netlist);
  (* Threshold helper for majority gates: at least [k] of [xs]. *)
  let rec at_least k xs =
    if k <= 0 then Nano_bdd.Bdd.bdd_true m
    else
      match xs with
      | [] -> Nano_bdd.Bdd.bdd_false m
      | x :: rest ->
        Nano_bdd.Bdd.ite m x (at_least (k - 1) rest) (at_least k rest)
  in
  Netlist.iter netlist (fun id info ->
      let fan () = Array.to_list (Array.map (fun f -> bdds.(f)) info.Netlist.fanins) in
      let reduce op xs =
        match xs with
        | [] -> invalid_arg "Activity.exact: empty fanin"
        | first :: rest -> List.fold_left (op m) first rest
      in
      bdds.(id) <-
        (match info.Netlist.kind with
        | Gate.Input -> Hashtbl.find input_var id
        | Gate.Const b -> Nano_bdd.Bdd.of_bool m b
        | Gate.Buf -> List.nth (fan ()) 0
        | Gate.Not -> Nano_bdd.Bdd.bnot m (List.nth (fan ()) 0)
        | Gate.And -> reduce Nano_bdd.Bdd.band (fan ())
        | Gate.Or -> reduce Nano_bdd.Bdd.bor (fan ())
        | Gate.Nand -> Nano_bdd.Bdd.bnot m (reduce Nano_bdd.Bdd.band (fan ()))
        | Gate.Nor -> Nano_bdd.Bdd.bnot m (reduce Nano_bdd.Bdd.bor (fan ()))
        | Gate.Xor -> reduce Nano_bdd.Bdd.bxor (fan ())
        | Gate.Xnor -> Nano_bdd.Bdd.bnot m (reduce Nano_bdd.Bdd.bxor (fan ()))
        | Gate.Majority ->
          let xs = fan () in
          at_least ((List.length xs / 2) + 1) xs))
    ;
  (* One evaluator prices every node of the manager once, however many
     cones share it. *)
  let eval = Nano_bdd.Bdd.probability_fn m ~p:(fun _ -> input_probability) in
  let probs = Array.map eval bdds in
  profile_of_probabilities netlist probs ~vectors:0

let measured_toggle_rate ?(seed = 0x70661e) ?(pairs = 4096)
    ?(input_probability = 0.5) netlist =
  let rng = Nano_util.Prng.create ~seed in
  let words = Nano_util.Math_ext.ceil_div pairs 64 in
  let n = Netlist.node_count netlist in
  let c = Compiled.of_netlist netlist in
  let block = Compiled.block_width c in
  let toggles = Array.make n 0 in
  let values_a = Compiled.create_values_blocked c in
  let values_b = Compiled.create_values_blocked c in
  (* Per-word layout: inputs_a then inputs_b, exactly as a sequential
     word-by-word loop draws them. *)
  let half =
    Netlist.input_count netlist
    * Nano_util.Prng.draws_per_word ~p:input_probability
  in
  let dpw = 2 * half in
  let done_words = ref 0 in
  while !done_words < words do
    let bw = min block (words - !done_words) in
    Compiled.draw_input_words_blocked c rng ~offset:0 ~stride:dpw ~width:bw
      ~input_probability ~values:values_a;
    Compiled.exec_words_blocked c ~width:bw ~values:values_a;
    Compiled.draw_input_words_blocked c rng ~offset:half ~stride:dpw
      ~width:bw ~input_probability ~values:values_b;
    Compiled.exec_words_blocked c ~width:bw ~values:values_b;
    Compiled.add_toggle_counts_blocked c ~width:bw ~a:values_a ~b:values_b
      ~into:toggles;
    Nano_util.Prng.jump rng ~draws:(bw * dpw);
    done_words := !done_words + bw
  done;
  let total = float_of_int (words * 64) in
  Array.map (fun c -> float_of_int c /. total) toggles
