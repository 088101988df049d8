module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Compiled = Nano_netlist.Compiled
module Par = Nano_util.Par
module Prng = Nano_util.Prng
module Bits = Nano_util.Bits

type engine = [ `Compiled | `Interp ]

type result = {
  epsilon : float;
  vectors : int;
  per_output_error : (string * float) list;
  any_output_error : float;
  node_probability : float array;
  node_activity : float array;
  average_gate_activity : float;
}

(* 64 channel-flip decisions, one uniform per bit at every epsilon,
   1/2 included: the noise layout of the compiled kernel, reached
   through nothing but [Prng.float]. *)
let noise_word rng ~epsilon =
  let w = ref 0L in
  for i = 0 to 63 do
    if Prng.float rng < epsilon then w := Int64.logor !w (Int64.shift_left 1L i)
  done;
  !w

(* The [`Interp] engine runs [Netlist.eval_words], so differential tests
   compare the compiled kernel against an implementation that shares
   nothing with it but the PRNG stream. The noisy pass draws fresh noise
   at every logic gate output; [epsilons] holds one error probability
   per node (entries for sources are unused). *)
let eval_noisy netlist epsilons rng ~input_words ~values =
  Netlist.eval_words netlist ~input_words ~values ~after:(fun id clean ->
      if Gate.is_logic (Netlist.kind netlist id) then
        Int64.logxor clean (noise_word rng ~epsilon:epsilons.(id))
      else clean)

(* How many raw PRNG draws one 64-vector word of simulation consumes:
   inputs_a, noise_a, inputs_b, noise_b, with 64 noise draws per logic
   gate whatever its epsilon. This is what lets a shard [Prng.jump]
   straight to its first word and replay the exact segment of the
   sequential stream — parallel results are bit-identical to the
   single-stream simulation for every job count — and, being
   independent of the epsilons, what lets a grid lane replay a
   single-point run. *)
let draws_per_word netlist ~input_probability =
  2
  * ((Netlist.input_count netlist * Prng.draws_per_word ~p:input_probability)
    + (64 * Netlist.size netlist))

(* Per-shard integer counters: one set per simulated lane, plus the
   golden pair's (sized only when a noise-free lane takes its
   statistics). *)
type counts = {
  ones0 : int array;
  toggles0 : int array;
  ones : int array array;
  toggles : int array array;
  out_errors : int array array;
  any : int array;
}

let create_counts ~nodes ~outputs ~lanes ~need0 =
  let dim0 = if need0 then nodes else 0 in
  {
    ones0 = Array.make dim0 0;
    toggles0 = Array.make dim0 0;
    ones = Array.init lanes (fun _ -> Array.make nodes 0);
    toggles = Array.init lanes (fun _ -> Array.make nodes 0);
    out_errors = Array.init lanes (fun _ -> Array.make outputs 0);
    any = Array.make lanes 0;
  }

(* Shard counters summed in shard order into the first shard's. Integer
   adds are exact, so the derived floats match a sequential run
   bit-for-bit. *)
let merge_counts shards =
  let add acc x = Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) x in
  let total = shards.(0) in
  for s = 1 to Array.length shards - 1 do
    let c = shards.(s) in
    add total.ones0 c.ones0;
    add total.toggles0 c.toggles0;
    Array.iter2 add total.ones c.ones;
    Array.iter2 add total.toggles c.toggles;
    Array.iter2 add total.out_errors c.out_errors;
    add total.any c.any
  done;
  total

(* The interpretive shard: one lane, walked word by word. *)
let run_shard_interp ~seed ~draws_per_word ~input_probability ~epsilons
    netlist ~first_word ~words =
  let rng = Prng.create ~seed in
  Prng.jump rng ~draws:(first_word * draws_per_word);
  let n = Netlist.node_count netlist in
  let n_in = Netlist.input_count netlist in
  let golden = Array.make n 0L in
  let noisy_a = Array.make n 0L in
  let noisy_b = Array.make n 0L in
  let outputs = Netlist.outputs netlist in
  let t =
    create_counts ~nodes:n ~outputs:(List.length outputs) ~lanes:1
      ~need0:false
  in
  let ones = t.ones.(0) and toggles = t.toggles.(0) in
  let out_errors = t.out_errors.(0) in
  for _ = 1 to words do
    let draw () =
      Array.init n_in (fun _ ->
          Prng.word_with_density rng ~p:input_probability)
    in
    let input_words = draw () in
    Netlist.eval_words netlist ~input_words ~values:golden
      ~after:(fun _ w -> w);
    (* The first noisy run re-uses the golden vectors so the output-error
       figures compare like with like; the second uses fresh independent
       vectors, so the (a, b) pair measures Theorem 1's switching
       activity under the temporal-independence model (independent
       inputs AND independent noise at the two time points). *)
    eval_noisy netlist epsilons rng ~input_words ~values:noisy_a;
    eval_noisy netlist epsilons rng ~input_words:(draw ()) ~values:noisy_b;
    for id = 0 to n - 1 do
      ones.(id) <- ones.(id) + Bits.popcount64 noisy_a.(id);
      let diff = Int64.logxor noisy_a.(id) noisy_b.(id) in
      toggles.(id) <- toggles.(id) + Bits.popcount64 diff
    done;
    let any = ref 0L in
    List.iteri
      (fun i (_, node) ->
        let wrong = Int64.logxor golden.(node) noisy_a.(node) in
        out_errors.(i) <- out_errors.(i) + Bits.popcount64 wrong;
        any := Int64.logor !any wrong)
      outputs;
    t.any.(0) <- t.any.(0) + Bits.popcount64 !any
  done;
  t

(* One shard of a compiled run: the fused blocked grid kernel
   ([Compiled.run_noisy_grid_words]) simulates the lanes of [grid],
   coupled by common random numbers, plus a golden pair whose statistics
   the noise-free lanes take when [need0]. Stream discipline: every word
   consumes exactly [draws_per_word] draws whatever the lane set — the
   two noise segments are 64 draws per noisy gate whether injected or
   merely accounted for — so shards jump straight to [first_word] and
   every lane replays the interpretive walk at its epsilons bit for
   bit. *)
let run_grid_shard ~seed ~draws_per_word ~input_probability ~grid ~need0 c
    ~first_word ~words =
  let rng = Prng.create ~seed in
  Prng.jump rng ~draws:(first_word * draws_per_word);
  let lanes = Compiled.grid_lanes grid in
  let buffers () =
    Array.init lanes (fun _ -> Compiled.create_values_blocked c)
  in
  let t =
    create_counts ~nodes:(Compiled.node_count c)
      ~outputs:(Array.length (Compiled.output_ids c))
      ~lanes ~need0
  in
  Compiled.run_noisy_grid_words c ~grid ~rng ~input_probability ~words ~need0
    ~golden_a:(Compiled.create_values_blocked c)
    ~golden_b:(Compiled.create_values_blocked c)
    ~na:(buffers ()) ~nb:(buffers ()) ~ones0:t.ones0 ~toggles0:t.toggles0
    ~ones:t.ones ~toggles:t.toggles ~out_errors:t.out_errors ~any:t.any;
  t

(* Shared result assembly: integer counters over [words] 64-vector words
   to the floating-point result record. Every engine and entry point
   ends here, so a grid lane whose counters match a one-lane run
   produces a bit-identical [result]. *)
let result_of_counts netlist ~epsilon ~words ~ones ~toggles ~out_errors
    ~any_errors =
  let outputs = Netlist.outputs netlist in
  let total = float_of_int (words * 64) in
  let node_probability = Array.map (fun c -> float_of_int c /. total) ones in
  let node_activity = Array.map (fun c -> float_of_int c /. total) toggles in
  let average_gate_activity =
    let sum, count =
      Netlist.fold netlist ~init:(0., 0) ~f:(fun (s, c) id info ->
          if Gate.is_logic info.Netlist.kind then
            (s +. node_activity.(id), c + 1)
          else (s, c))
    in
    if count = 0 then 0. else sum /. float_of_int count
  in
  {
    epsilon;
    vectors = words * 64;
    per_output_error =
      List.mapi
        (fun i (name, _) -> (name, float_of_int out_errors.(i) /. total))
        outputs;
    any_output_error = float_of_int any_errors /. total;
    node_probability;
    node_activity;
    average_gate_activity;
  }

(* Every entry point checks its budget up front, under its own name,
   so a bad value never reaches the shard loop. *)
let check_budget name ~jobs ~vectors ~input_probability =
  if jobs < 1 then invalid_arg (name ^ ": jobs must be >= 1");
  if vectors < 1 then invalid_arg (name ^ ": vectors must be >= 1");
  if not (input_probability >= 0. && input_probability <= 1.) then
    invalid_arg (name ^ ": input_probability must lie in [0, 1]")

(* The one fixed-budget run behind every entry point. Lane [j] has
   the per-node epsilons [rows.(j)] and reports [labels.(j)] as its
   [result.epsilon]. The vector words are sharded once across [jobs]
   domains and the shards' counters merged in shard order. [`Compiled]
   runs the fused kernel over every lane with a positive epsilon; a
   noise-free lane can never disagree with the golden evaluation, so it
   takes the golden pair's statistics and exactly zero output error
   without a pass of its own. [`Interp], the reference, simulates its
   one lane whatever its epsilons. *)
let run_lanes ~engine ~seed ~vectors ~input_probability ~jobs ~labels rows
    netlist =
  let lanes = Array.length rows in
  if lanes = 0 then [||]
  else begin
    let words = Nano_util.Math_ext.ceil_div vectors 64 in
    let draws_per_word = draws_per_word netlist ~input_probability in
    (* [lane_of.(j)]: row [j]'s simulated lane, or -1 for the golden
       pair. *)
    let lane_of, shard =
      match engine with
      | `Interp ->
        ( [| 0 |],
          run_shard_interp ~seed ~draws_per_word ~input_probability
            ~epsilons:rows.(0) netlist )
      | `Compiled ->
        let sim =
          List.filter
            (fun j -> Array.exists (fun e -> e > 0.) rows.(j))
            (List.init lanes Fun.id)
        in
        let lane_of = Array.make lanes (-1) in
        List.iteri (fun k j -> lane_of.(j) <- k) sim;
        (* Lower once on the submitting domain; shards share the
           compiled program (immutable) and allocate only their own
           buffers. *)
        let c = Compiled.of_netlist netlist in
        let grid =
          if sim = [] then Compiled.empty_grid_pack
          else
            Compiled.pack_grid_heterogeneous c
              (Array.of_list (List.map (Array.get rows) sim))
        in
        ( lane_of,
          run_grid_shard ~seed ~draws_per_word ~input_probability ~grid
            ~need0:(List.length sim < lanes) c )
    in
    let t =
      merge_counts
        (Par.map ~jobs
           (fun (lo, hi) -> shard ~first_word:lo ~words:(hi - lo))
           (Par.ranges ~jobs words))
    in
    let no_errors = Array.make (List.length (Netlist.outputs netlist)) 0 in
    Array.mapi
      (fun j epsilon ->
        let k = lane_of.(j) in
        if k >= 0 then
          result_of_counts netlist ~epsilon ~words ~ones:t.ones.(k)
            ~toggles:t.toggles.(k) ~out_errors:t.out_errors.(k)
            ~any_errors:t.any.(k)
        else
          result_of_counts netlist ~epsilon ~words ~ones:t.ones0
            ~toggles:t.toggles0 ~out_errors:no_errors ~any_errors:0)
      labels
  end

let run ?(jobs = 1) ?(engine = `Compiled) ~seed ~vectors ~input_probability
    ~epsilons ~mean_epsilon netlist =
  check_budget "Noisy_sim.run" ~jobs ~vectors ~input_probability;
  (run_lanes ~engine ~seed ~vectors ~input_probability ~jobs
     ~labels:[| mean_epsilon |] [| epsilons |] netlist).(0)

let simulate ?(seed = 0xfa17) ?(vectors = 8192) ?(input_probability = 0.5)
    ?jobs ?engine ~epsilon netlist =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Noisy_sim.simulate: epsilon must lie in [0, 1/2]";
  let epsilons = Array.make (Netlist.node_count netlist) epsilon in
  run ?jobs ?engine ~seed ~vectors ~input_probability ~epsilons
    ~mean_epsilon:epsilon netlist

(* Per-gate epsilons as a plain per-node float array: [epsilon_of] is
   consulted once per logic gate, non-noisy nodes stay at 0. Returns the
   array and the mean over logic gates (the [result.epsilon] field). *)
let heterogeneous_epsilons netlist ~epsilon_of =
  let epsilons = Array.make (Netlist.node_count netlist) 0. in
  let sum = ref 0. in
  let count = ref 0 in
  Netlist.iter netlist (fun id info ->
      if Gate.is_logic info.Netlist.kind then begin
        let e = epsilon_of id in
        if not (e >= 0. && e <= 0.5) then
          invalid_arg
            (Printf.sprintf
               "Noisy_sim: node %d: epsilon %g must lie in [0, 1/2]" id e);
        epsilons.(id) <- e;
        sum := !sum +. e;
        incr count
      end);
  (epsilons, if !count = 0 then 0. else !sum /. float_of_int !count)

let simulate_heterogeneous ?(seed = 0xfa17) ?(vectors = 8192)
    ?(input_probability = 0.5) ?jobs ?engine ~epsilon_of netlist =
  let epsilons, mean_epsilon = heterogeneous_epsilons netlist ~epsilon_of in
  run ?jobs ?engine ~seed ~vectors ~input_probability ~epsilons
    ~mean_epsilon netlist

let output_reliability r = 1. -. r.any_output_error

let profile_grid ?(seed = 0xfa17) ?(vectors = 8192) ?(input_probability = 0.5)
    ?(jobs = 1) ~epsilons netlist =
  check_budget "Noisy_sim.profile_grid" ~jobs ~vectors ~input_probability;
  Array.iter
    (fun e ->
      if not (e >= 0. && e <= 0.5) then
        invalid_arg "Noisy_sim.profile_grid: epsilon must lie in [0, 1/2]")
    epsilons;
  let nodes = Netlist.node_count netlist in
  run_lanes ~engine:`Compiled ~seed ~vectors ~input_probability ~jobs
    ~labels:epsilons
    (Array.map (Array.make nodes) epsilons)
    netlist

let profile_grid_heterogeneous ?(seed = 0xfa17) ?(vectors = 8192)
    ?(input_probability = 0.5) ?(jobs = 1) ~epsilon_of_lanes netlist =
  check_budget "Noisy_sim.profile_grid_heterogeneous" ~jobs ~vectors
    ~input_probability;
  let per_lane =
    Array.map
      (fun epsilon_of -> heterogeneous_epsilons netlist ~epsilon_of)
      epsilon_of_lanes
  in
  run_lanes ~engine:`Compiled ~seed ~vectors ~input_probability ~jobs
    ~labels:(Array.map snd per_lane) (Array.map fst per_lane) netlist
