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

let noisy_node info =
  match info.Netlist.kind with
  | Gate.Input | Gate.Const _ | Gate.Buf -> false
  | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor | Gate.Majority -> true

(* Interpretive clean evaluation, kept verbatim from the pre-compiled
   engine. The [`Interp] engine exists so differential tests and the
   bench's interp-vs-compiled series can compare the compiled kernel
   against an implementation that shares nothing with it but the PRNG
   stream. *)
let eval_words_interp netlist ~input_words ~values =
  List.iteri
    (fun i id -> values.(id) <- input_words.(i))
    (Netlist.inputs netlist);
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind ->
        let words = Array.map (fun f -> values.(f)) info.Netlist.fanins in
        values.(id) <- Gate.eval_word kind words)

(* Evaluate with fresh noise on every logic gate output; [channels]
   holds one channel per node (entries for sources are unused). *)
let eval_noisy netlist channels rng ~input_words ~values =
  List.iteri
    (fun i id -> values.(id) <- input_words.(i))
    (Netlist.inputs netlist);
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind ->
        let words = Array.map (fun f -> values.(f)) info.Netlist.fanins in
        let clean = Gate.eval_word kind words in
        values.(id) <-
          (if noisy_node info then
             Int64.logxor clean (Channel.noise_word channels.(id) rng)
           else clean))

(* How many raw PRNG draws one 64-vector word of simulation consumes:
   two input draws plus two noisy evaluations. This is what lets a shard
   [Prng.jump] straight to its first word and replay the exact segment
   of the sequential stream — parallel results are bit-identical to the
   single-stream simulation for every job count. Error probabilities
   travel as one plain float per node ([epsilons]); the compiled engine
   packs them straight into threshold buffers, and only the
   interpretive reference engine wraps them in {!Channel.t} values. *)
let draws_per_word netlist ~epsilons ~input_probability =
  let n_in = Netlist.input_count netlist in
  let noise = ref 0 in
  Netlist.iter netlist (fun id info ->
      if noisy_node info then
        noise := !noise + Prng.draws_per_word ~p:epsilons.(id));
  2 * ((n_in * Prng.draws_per_word ~p:input_probability) + !noise)

(* Per-shard integer counters; merged by summation in shard order, which
   is exact (integer adds), so the derived floats match sequential
   results bit-for-bit. *)
type shard_counts = {
  s_ones : int array;
  s_toggles : int array;
  s_out_errors : int array;
  s_any_errors : int;
}

let run_shard_interp ~seed ~first_word ~words ~draws_per_word
    ~input_probability ~channels netlist =
  let rng = Prng.create ~seed in
  Prng.jump rng ~draws:(first_word * draws_per_word);
  let n = Netlist.node_count netlist in
  let n_in = Netlist.input_count netlist in
  let golden = Array.make n 0L in
  let noisy_a = Array.make n 0L in
  let noisy_b = Array.make n 0L in
  let ones = Array.make n 0 in
  let toggles = Array.make n 0 in
  let outputs = Netlist.outputs netlist in
  let out_errors = Array.make (List.length outputs) 0 in
  let any_errors = ref 0 in
  for _ = 1 to words do
    let draw () =
      Array.init n_in (fun _ ->
          Prng.word_with_density rng ~p:input_probability)
    in
    let input_words = draw () in
    eval_words_interp netlist ~input_words ~values:golden;
    (* The first noisy run re-uses the golden vectors so the output-error
       figures compare like with like; the second uses fresh independent
       vectors, so the (a, b) pair measures Theorem 1's switching
       activity under the temporal-independence model (independent
       inputs AND independent noise at the two time points). *)
    eval_noisy netlist channels rng ~input_words ~values:noisy_a;
    eval_noisy netlist channels rng ~input_words:(draw ()) ~values:noisy_b;
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
    any_errors := !any_errors + Bits.popcount64 !any
  done;
  {
    s_ones = ones;
    s_toggles = toggles;
    s_out_errors = out_errors;
    s_any_errors = !any_errors;
  }

(* The blocked shard drives the fused wide-word kernel: one call
   simulates the whole shard segment in blocks of the compiled program's
   width, with evaluation, noise injection and every counter folded into
   a single level-ordered sweep per block. The kernel addresses the PRNG
   stream positionally under the same per-word layout as
   [run_shard_interp], so the counters — and therefore the final
   result — are bit-identical to it at any block width. *)
let run_shard_blocked ~seed ~first_word ~words ~draws_per_word
    ~input_probability ~noise c =
  let rng = Prng.create ~seed in
  Prng.jump rng ~draws:(first_word * draws_per_word);
  let n = Compiled.node_count c in
  let golden = Compiled.create_values_blocked c in
  let na = Compiled.create_values_blocked c in
  let nb = Compiled.create_values_blocked c in
  let ones = Array.make n 0 in
  let toggles = Array.make n 0 in
  let out_errors = Array.make (Array.length (Compiled.output_ids c)) 0 in
  let any =
    Compiled.run_noisy_words c ~noise ~rng ~input_probability ~words ~golden
      ~na ~nb ~ones ~toggles ~out_errors
  in
  {
    s_ones = ones;
    s_toggles = toggles;
    s_out_errors = out_errors;
    s_any_errors = any;
  }

(* Shared result assembly: integer counters over [words] 64-vector words
   to the floating-point result record. Both the per-point engine and
   the batched grid engine end here, so a grid lane whose counters match
   a per-point run produces a bit-identical [result]. *)
let result_of_counts netlist ~epsilon ~words ~ones ~toggles ~out_errors
    ~any_errors =
  let outputs = Netlist.outputs netlist in
  let total = float_of_int (words * 64) in
  let node_probability = Array.map (fun c -> float_of_int c /. total) ones in
  let node_activity = Array.map (fun c -> float_of_int c /. total) toggles in
  let average_gate_activity =
    let sum, count =
      Netlist.fold netlist ~init:(0., 0) ~f:(fun (s, c) id info ->
          if noisy_node info then (s +. node_activity.(id), c + 1) else (s, c))
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

let run ?(jobs = 1) ?(engine = `Compiled) ?block ~seed ~vectors
    ~input_probability ~epsilons ~mean_epsilon netlist =
  if jobs < 1 then invalid_arg "Noisy_sim.run: jobs must be >= 1";
  if vectors < 1 then invalid_arg "Noisy_sim.run: vectors must be >= 1";
  let words = Nano_util.Math_ext.ceil_div vectors 64 in
  let n = Netlist.node_count netlist in
  let outputs = Netlist.outputs netlist in
  let draws_per_word = draws_per_word netlist ~epsilons ~input_probability in
  let shards =
    match engine with
    | `Compiled ->
      (* Lower once on the submitting domain; shards share the compiled
         program (immutable) and allocate only their own buffers. *)
      let c = Compiled.of_netlist ?block netlist in
      let noise = Compiled.pack_noise c epsilons in
      Par.map ~jobs
        (fun (lo, hi) ->
          run_shard_blocked ~seed ~first_word:lo ~words:(hi - lo)
            ~draws_per_word ~input_probability ~noise c)
        (Par.ranges ~jobs words)
    | `Interp ->
      (* The interpretive walk is the one engine that still consumes
         boxed channels; build them here, off the hot paths. *)
      let channels =
        Array.map (fun e -> Channel.create ~epsilon:e) epsilons
      in
      Par.map ~jobs
        (fun (lo, hi) ->
          run_shard_interp ~seed ~first_word:lo ~words:(hi - lo)
            ~draws_per_word ~input_probability ~channels netlist)
        (Par.ranges ~jobs words)
  in
  let ones = Array.make n 0 in
  let toggles = Array.make n 0 in
  let out_errors = Array.make (List.length outputs) 0 in
  let any_errors = ref 0 in
  Array.iter
    (fun s ->
      for id = 0 to n - 1 do
        ones.(id) <- ones.(id) + s.s_ones.(id);
        toggles.(id) <- toggles.(id) + s.s_toggles.(id)
      done;
      Array.iteri
        (fun i e -> out_errors.(i) <- out_errors.(i) + e)
        s.s_out_errors;
      any_errors := !any_errors + s.s_any_errors)
    shards;
  result_of_counts netlist ~epsilon:mean_epsilon ~words ~ones ~toggles
    ~out_errors ~any_errors:!any_errors

let simulate ?(seed = 0xfa17) ?(vectors = 8192) ?(input_probability = 0.5)
    ?jobs ?engine ?block ~epsilon netlist =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Noisy_sim.simulate: epsilon must lie in [0, 1/2]";
  let epsilons = Array.make (Netlist.node_count netlist) epsilon in
  run ?jobs ?engine ?block ~seed ~vectors ~input_probability ~epsilons
    ~mean_epsilon:epsilon netlist

(* Per-gate epsilons as a plain per-node float array: [epsilon_of] is
   consulted once per logic gate, non-noisy nodes stay at 0. Returns the
   array and the mean over logic gates (the [result.epsilon] field). *)
let heterogeneous_epsilons netlist ~epsilon_of =
  let epsilons = Array.make (Netlist.node_count netlist) 0. in
  let sum = ref 0. in
  let count = ref 0 in
  Netlist.iter netlist (fun id info ->
      if noisy_node info then begin
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
    ?(input_probability = 0.5) ?jobs ?engine ?block ~epsilon_of netlist =
  let epsilons, mean_epsilon = heterogeneous_epsilons netlist ~epsilon_of in
  run ?jobs ?engine ?block ~seed ~vectors ~input_probability ~epsilons
    ~mean_epsilon netlist

let output_reliability r = 1. -. r.any_output_error

(* ------------------------------------------------------------------ *)
(* Batched multi-ε grid engine.                                         *)
(* ------------------------------------------------------------------ *)

type mode = Fixed | Adaptive of { half_width : float; z : float }

(* Per-shard counters of a grid run: one golden set (only sized when an
   ε = 0 lane needs it) plus one set per simulated (ε > 0) lane. *)
type grid_counts = {
  g_ones0 : int array;
  g_toggles0 : int array;
  g_ones : int array array;
  g_toggles : int array array;
  g_out_errors : int array array;
  g_any : int array;
}

(* One shard of a batched grid run: the fused blocked grid kernel
   ([Compiled.run_noisy_grid_words]) simulates [lanes] noise replicas
   coupled by common random numbers plus a golden pair that doubles as
   the ε = 0 lanes' statistics. Stream discipline: every word consumes
   exactly [draws_per_word] draws whatever the lane set — the two noise
   segments are 64 draws per noisy gate whether injected or merely
   accounted for ([lanes = 0]) — so shards jump straight to
   [first_word], and adaptive freezing (which shrinks [lanes] between
   blocks) never shifts the stream. The per-word draw layout (inputs_a,
   noise_a, inputs_b, noise_b) matches [run_shard_blocked], so each
   ε ≠ 1/2 lane replays a per-point run bit-for-bit. *)
let run_grid_shard ~seed ~first_word ~words ~draws_per_word ~input_probability
    ~grid ~need0 c =
  let rng = Prng.create ~seed in
  Prng.jump rng ~draws:(first_word * draws_per_word);
  let n = Compiled.node_count c in
  let out_n = Array.length (Compiled.output_ids c) in
  let lanes = Compiled.grid_lanes grid in
  let golden_a = Compiled.create_values_blocked c in
  let golden_b = Compiled.create_values_blocked c in
  let na = Array.init lanes (fun _ -> Compiled.create_values_blocked c) in
  let nb = Array.init lanes (fun _ -> Compiled.create_values_blocked c) in
  let dim0 = if need0 then n else 0 in
  let ones0 = Array.make dim0 0 in
  let toggles0 = Array.make dim0 0 in
  let ones = Array.init lanes (fun _ -> Array.make n 0) in
  let toggles = Array.init lanes (fun _ -> Array.make n 0) in
  let out_errors = Array.init lanes (fun _ -> Array.make out_n 0) in
  let any = Array.make lanes 0 in
  Compiled.run_noisy_grid_words c ~grid ~rng ~input_probability ~words ~need0
    ~golden_a ~golden_b ~na ~nb ~ones0 ~toggles0 ~ones ~toggles ~out_errors
    ~any;
  {
    g_ones0 = ones0;
    g_toggles0 = toggles0;
    g_ones = ones;
    g_toggles = toggles;
    g_out_errors = out_errors;
    g_any = any;
  }

(* Adaptive mode re-checks lane confidence intervals every block of this
   many words (16 words = 1024 vectors): coarse enough that the
   Agresti–Coull interval is sane at the first boundary, fine enough
   that converged lanes stop early. Freezing decisions are made on
   counters merged at fixed block boundaries, so they are identical for
   every job count. *)
let adaptive_block_words = 16

let run_grid ?block ~seed ~vectors ~input_probability ~jobs ~mode ~epsilons
    netlist =
  let k = Array.length epsilons in
  let words_total = Nano_util.Math_ext.ceil_div vectors 64 in
  let c = Compiled.of_netlist ?block netlist in
  let n = Compiled.node_count c in
  let out_n = List.length (Netlist.outputs netlist) in
  let sim_idx =
    Array.of_list
      (List.filter (fun i -> epsilons.(i) > 0.) (List.init k Fun.id))
  in
  let lanes = Array.length sim_idx in
  let need0 = lanes < k in
  let dpw =
    (2 * Netlist.input_count netlist
    * Prng.draws_per_word ~p:input_probability)
    + (2 * 64 * Compiled.noisy_count c)
  in
  (* Global accumulators; shard counters are merged in shard order at
     every block boundary (exact integer adds — jobs-independent). *)
  let ones0 = Array.make (if need0 then n else 0) 0 in
  let toggles0 = Array.make (if need0 then n else 0) 0 in
  let ones = Array.init lanes (fun _ -> Array.make n 0) in
  let toggles = Array.init lanes (fun _ -> Array.make n 0) in
  let out_errors = Array.init lanes (fun _ -> Array.make out_n 0) in
  let any = Array.make lanes 0 in
  let lane_words = Array.make lanes 0 in
  let active = ref (Array.init lanes Fun.id) in
  let words_done = ref 0 in
  let block_words =
    match mode with
    | Fixed -> max 1 words_total
    | Adaptive _ -> adaptive_block_words
  in
  while !words_done < words_total && (lanes = 0 || Array.length !active > 0) do
    let act = !active in
    let nact = Array.length act in
    let bw = min block_words (words_total - !words_done) in
    let grid =
      if nact = 0 then Compiled.empty_grid_pack
      else
        Compiled.pack_grid c (Array.map (fun p -> epsilons.(sim_idx.(p))) act)
    in
    let first = !words_done in
    let shards =
      Par.map ~jobs
        (fun (lo, hi) ->
          run_grid_shard ~seed ~first_word:(first + lo) ~words:(hi - lo)
            ~draws_per_word:dpw ~input_probability ~grid ~need0 c)
        (Par.ranges ~jobs bw)
    in
    Array.iter
      (fun s ->
        if need0 then
          for id = 0 to n - 1 do
            ones0.(id) <- ones0.(id) + s.g_ones0.(id);
            toggles0.(id) <- toggles0.(id) + s.g_toggles0.(id)
          done;
        for j = 0 to nact - 1 do
          let p = act.(j) in
          let so = s.g_ones.(j)
          and st = s.g_toggles.(j)
          and go = ones.(p)
          and gt = toggles.(p) in
          for id = 0 to n - 1 do
            go.(id) <- go.(id) + so.(id);
            gt.(id) <- gt.(id) + st.(id)
          done;
          let se = s.g_out_errors.(j) and ge = out_errors.(p) in
          for i = 0 to out_n - 1 do
            ge.(i) <- ge.(i) + se.(i)
          done;
          any.(p) <- any.(p) + s.g_any.(j)
        done)
      shards;
    words_done := !words_done + bw;
    Array.iter (fun p -> lane_words.(p) <- !words_done) act;
    match mode with
    | Fixed -> ()
    | Adaptive { half_width; z } ->
      (* Freeze a lane once the Agresti–Coull interval around its
         empirical δ̂ is tight enough. The adjusted point estimate
         (errs + 2) / (n + 4) keeps the width honest at δ̂ = 0, where
         the Wald interval would collapse immediately. *)
      active :=
        Array.of_list
          (List.filter
             (fun p ->
               let nvec = float_of_int (lane_words.(p) * 64) in
               let errs = float_of_int any.(p) in
               let pt = (errs +. 2.) /. (nvec +. 4.) in
               let hw = z *. sqrt (pt *. (1. -. pt) /. nvec) in
               hw > half_width)
             (Array.to_list act))
  done;
  let words0 = !words_done in
  let lane_of = Array.make k (-1) in
  Array.iteri (fun p j -> lane_of.(j) <- p) sim_idx;
  Array.init k (fun j ->
      if epsilons.(j) > 0. then begin
        let p = lane_of.(j) in
        result_of_counts netlist ~epsilon:epsilons.(j) ~words:lane_words.(p)
          ~ones:ones.(p) ~toggles:toggles.(p) ~out_errors:out_errors.(p)
          ~any_errors:any.(p)
      end
      else
        (* ε = 0 short-circuit: a noise-free lane can never disagree
           with the golden evaluation, so its output-error figures are
           exactly zero by definition and its node statistics are the
           golden pair's — no lane is simulated for it. *)
        result_of_counts netlist ~epsilon:0. ~words:words0 ~ones:ones0
          ~toggles:toggles0 ~out_errors:(Array.make out_n 0) ~any_errors:0)

let profile_grid ?(seed = 0xfa17) ?(vectors = 8192) ?(input_probability = 0.5)
    ?(jobs = 1) ?(mode = Fixed) ?block ~epsilons netlist =
  if jobs < 1 then invalid_arg "Noisy_sim.profile_grid: jobs must be >= 1";
  if vectors < 1 then
    invalid_arg "Noisy_sim.profile_grid: vectors must be >= 1";
  Array.iter
    (fun e ->
      if not (e >= 0. && e <= 0.5) then
        invalid_arg "Noisy_sim.profile_grid: epsilon must lie in [0, 1/2]")
    epsilons;
  (match mode with
  | Fixed -> ()
  | Adaptive { half_width; z } ->
    if not (half_width > 0.) then
      invalid_arg "Noisy_sim.profile_grid: half_width must be > 0";
    if not (z > 0.) then invalid_arg "Noisy_sim.profile_grid: z must be > 0");
  match Array.length epsilons with
  | 0 -> [||]
  | 1 when mode = Fixed ->
    (* Single-point grids take the per-point engine on the calling
       domain: no pool spin-up, and bit-identity with {!simulate} holds
       by construction. *)
    [|
      simulate ~seed ~vectors ~input_probability ~jobs:1 ?block
        ~epsilon:epsilons.(0) netlist;
    |]
  | 1 ->
    run_grid ?block ~seed ~vectors ~input_probability ~jobs:1 ~mode ~epsilons
      netlist
  | _ ->
    run_grid ?block ~seed ~vectors ~input_probability ~jobs ~mode ~epsilons
      netlist

(* ------------------------------------------------------------------ *)
(* Heterogeneous (per-gate x per-lane) grid engine.                     *)
(* ------------------------------------------------------------------ *)

(* One fused pass over [lanes] per-gate epsilon assignments: the blocked
   grid kernel already reads one threshold row per noisy schedule
   position, so a heterogeneous pack
   ({!Compiled.pack_grid_heterogeneous}) rides the exact same shard loop
   as the homogeneous grid — common-random-number coupling, fixed draw
   consumption, seed-jump sharding and all. Every lane is simulated
   (no ε = 0 short-circuit: a lane that is zero at SOME gates still
   needs its pass), and each lane reproduces
   {!simulate_heterogeneous} at its assignment bit-for-bit whenever no
   gate sits exactly at ε = 1/2 (the grid kernel always consumes 64
   shared draws per noisy gate; the per-point pack consumes 1 there). *)
let profile_grid_heterogeneous ?(seed = 0xfa17) ?(vectors = 8192)
    ?(input_probability = 0.5) ?(jobs = 1) ?block ~epsilon_of_lanes netlist =
  if jobs < 1 then
    invalid_arg "Noisy_sim.profile_grid_heterogeneous: jobs must be >= 1";
  if vectors < 1 then
    invalid_arg "Noisy_sim.profile_grid_heterogeneous: vectors must be >= 1";
  let lanes = Array.length epsilon_of_lanes in
  if lanes = 0 then [||]
  else begin
    let per_lane =
      Array.map
        (fun epsilon_of -> heterogeneous_epsilons netlist ~epsilon_of)
        epsilon_of_lanes
    in
    let words_total = Nano_util.Math_ext.ceil_div vectors 64 in
    let c = Compiled.of_netlist ?block netlist in
    let n = Compiled.node_count c in
    let out_n = List.length (Netlist.outputs netlist) in
    let grid = Compiled.pack_grid_heterogeneous c (Array.map fst per_lane) in
    let dpw =
      (2 * Netlist.input_count netlist
      * Prng.draws_per_word ~p:input_probability)
      + (2 * 64 * Compiled.noisy_count c)
    in
    let ones = Array.init lanes (fun _ -> Array.make n 0) in
    let toggles = Array.init lanes (fun _ -> Array.make n 0) in
    let out_errors = Array.init lanes (fun _ -> Array.make out_n 0) in
    let any = Array.make lanes 0 in
    let shards =
      Par.map ~jobs
        (fun (lo, hi) ->
          run_grid_shard ~seed ~first_word:lo ~words:(hi - lo)
            ~draws_per_word:dpw ~input_probability ~grid ~need0:false c)
        (Par.ranges ~jobs words_total)
    in
    Array.iter
      (fun s ->
        for k = 0 to lanes - 1 do
          let so = s.g_ones.(k)
          and st = s.g_toggles.(k)
          and go = ones.(k)
          and gt = toggles.(k) in
          for id = 0 to n - 1 do
            go.(id) <- go.(id) + so.(id);
            gt.(id) <- gt.(id) + st.(id)
          done;
          let se = s.g_out_errors.(k) and ge = out_errors.(k) in
          for i = 0 to out_n - 1 do
            ge.(i) <- ge.(i) + se.(i)
          done;
          any.(k) <- any.(k) + s.g_any.(k)
        done)
      shards;
    Array.init lanes (fun k ->
        result_of_counts netlist ~epsilon:(snd per_lane.(k)) ~words:words_total
          ~ones:ones.(k) ~toggles:toggles.(k) ~out_errors:out_errors.(k)
          ~any_errors:any.(k))
  end
