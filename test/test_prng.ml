module Prng = Nano_util.Prng
module Kernels = Prng.For_testing

let test_determinism () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 in
  let b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_jump_equals_draws () =
  (* jump ~draws:k must land exactly where k bits64 calls land. *)
  List.iter
    (fun k ->
      let a = Prng.create ~seed:321 in
      let b = Prng.create ~seed:321 in
      for _ = 1 to k do
        ignore (Prng.bits64 a)
      done;
      Prng.jump b ~draws:k;
      Alcotest.(check int64)
        (Printf.sprintf "after %d draws" k)
        (Prng.bits64 a) (Prng.bits64 b))
    [ 0; 1; 7; 64; 12345 ];
  Helpers.check_invalid "negative draws" (fun () ->
      Prng.jump (Prng.create ~seed:1) ~draws:(-1))

let test_draws_per_word () =
  (* The advertised draw count must match what word_with_density
     actually consumes — seed-sharded simulation depends on it. *)
  List.iter
    (fun p ->
      let a = Prng.create ~seed:55 in
      let b = Prng.create ~seed:55 in
      ignore (Prng.word_with_density a ~p);
      Prng.jump b ~draws:(Prng.draws_per_word ~p);
      Alcotest.(check int64)
        (Printf.sprintf "p=%g" p)
        (Prng.bits64 a) (Prng.bits64 b))
    [ 0.; 0.25; 0.5; 0.75; 1. ]

let test_int_unbiased () =
  (* Rejection sampling: residue counts for a bound that does not divide
     2^63 should be flat. With 30000 draws over bound 10, each bucket
     expects 3000 +/- ~170 (3 sigma ~ 165). *)
  let rng = Prng.create ~seed:31 in
  let counts = Array.make 10 0 in
  let n = 30000 in
  for _ = 1 to n do
    let x = Prng.int rng ~bound:10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      Helpers.check_in_range
        (Printf.sprintf "bucket %d" i)
        ~lo:2700. ~hi:3300. (float_of_int c))
    counts;
  Helpers.check_invalid "bound 0" (fun () -> ignore (Prng.int rng ~bound:0))

let test_invalid_probabilities () =
  let rng = Prng.create ~seed:3 in
  Helpers.check_invalid "bernoulli p>1" (fun () ->
      ignore (Prng.bernoulli rng ~p:1.5));
  Helpers.check_invalid "bernoulli p<0" (fun () ->
      ignore (Prng.bernoulli rng ~p:(-0.1)));
  Helpers.check_invalid "density p>1" (fun () ->
      ignore (Prng.word_with_density rng ~p:2.))

let test_float_range () =
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Helpers.check_in_range "float in [0,1)" ~lo:0. ~hi:0.9999999999999999 x
  done

let test_float_mean () =
  let rng = Prng.create ~seed:13 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float rng
  done;
  Helpers.check_in_range "mean near 1/2" ~lo:0.48 ~hi:0.52
    (!sum /. float_of_int n)

let test_bernoulli () =
  let rng = Prng.create ~seed:17 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli rng ~p:0.3 then incr hits
  done;
  Helpers.check_in_range "bernoulli(0.3)" ~lo:0.28 ~hi:0.32
    (float_of_int !hits /. float_of_int n);
  (* degenerate cases *)
  Alcotest.(check bool) "p=0" false (Prng.bernoulli rng ~p:0.);
  Alcotest.(check bool) "p=1" true (Prng.bernoulli rng ~p:1.)

let test_int_bound () =
  let rng = Prng.create ~seed:19 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let x = Prng.int rng ~bound:10 in
    Alcotest.(check bool) "in bound" true (x >= 0 && x < 10);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_word_density () =
  let rng = Prng.create ~seed:23 in
  let total = ref 0 in
  let words = 2000 in
  for _ = 1 to words do
    total := !total + Nano_util.Bits.popcount64 (Prng.word_with_density rng ~p:0.25)
  done;
  Helpers.check_in_range "density 1/4" ~lo:0.24 ~hi:0.26
    (float_of_int !total /. float_of_int (64 * words));
  Alcotest.(check int64) "density 0" 0L (Prng.word_with_density rng ~p:0.);
  Alcotest.(check int64) "density 1" (-1L) (Prng.word_with_density rng ~p:1.)

let test_shuffle_permutes () =
  let rng = Prng.create ~seed:29 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted;
  Alcotest.(check bool) "actually shuffled" true
    (a <> Array.init 50 (fun i -> i))

(* The SIMD C kernels behind [xor_noise_blocked] and
   [xor_noise_lanes_blocked] must reproduce the pure-OCaml references
   (prng_ref.ml) bit for bit on every machine — widths, ragged offsets,
   strides, and thresholds from degenerate (0, 1/2) to tiny. The
   multi-lane kernel is checked through the resolved dispatch and,
   through [xor_noise_lanes_blocked_at_level], at every kernel family
   this machine runs (scalar always), so a family the dispatcher does
   not pick here is still pinned. *)
let lane_levels = [ "scalar"; "avx2"; "avx512"; "neon" ]

let test_blocked_noise_stub_matches_reference () =
  let rng = Prng.create ~seed:0x51d in
  let scraps = Prng.create ~seed:0xfee1 in
  let set64 b pos v = Bytes.set_int64_le b pos v in
  let random_bytes len =
    let b = Bytes.create len in
    for i = 0 to (len / 8) - 1 do
      set64 b (i * 8) (Prng.bits64 scraps)
    done;
    b
  in
  let ran = Hashtbl.create 4 in
  (* Lanes at [eps] behind a row bound [tmax] (default: the largest
     lane), the row at byte [thr_pos] of a buffer whose other words are
     random, flips landing at byte [pos] of random lane buffers. *)
  let check_lanes ?tmax ?(thr_pos = 0) ?(pos = 0) ~offset ~stride ~width label
      eps =
    let lanes = Array.length eps in
    let tb = Array.map (fun p -> Prng.threshold_bits ~p) eps in
    let tmax =
      match tmax with Some t -> t | None -> Array.fold_left Int64.max 0L tb
    in
    let lthr = random_bytes (thr_pos + ((lanes + 2) * 8)) in
    set64 lthr thr_pos tmax;
    Array.iteri (fun k t -> set64 lthr (thr_pos + ((k + 1) * 8)) t) tb;
    let before =
      Array.init lanes (fun _ -> random_bytes (pos + (width * 8) + 8))
    in
    let da = Array.map Bytes.copy before in
    Prng_ref.xor_noise_lanes_blocked rng ~offset ~stride ~width ~thr:lthr
      ~thr_pos ~lanes da ~pos;
    let check_lane_bytes name db =
      Array.iteri
        (fun k a ->
          Alcotest.(check bytes)
            (Printf.sprintf "%s (%s) lane %d" label name k)
            a db.(k))
        da
    in
    let db = Array.map Bytes.copy before in
    Kernels.xor_noise_lanes_blocked rng ~offset ~stride ~width ~thr:lthr
      ~thr_pos ~lanes db ~pos;
    check_lane_bytes "dispatched" db;
    List.iter
      (fun level ->
        let db = Array.map Bytes.copy before in
        if
          Kernels.xor_noise_lanes_blocked_at_level ~level rng ~offset ~stride
            ~width ~thr:lthr ~thr_pos ~lanes db ~pos
        then begin
          Hashtbl.replace ran level ();
          check_lane_bytes level db
        end)
      lane_levels
  in
  let eps_choices = [| 0.; 1e-6; 0.01; 0.3; 0.5 |] in
  for trial = 0 to 19 do
    let width = 1 + (trial mod 9) in
    let offset = Prng.int scraps ~bound:1000 in
    let stride = 1 + Prng.int scraps ~bound:200 in
    let thr = Bytes.create 8 in
    set64 thr 0
      (Prng.threshold_bits ~p:eps_choices.(trial mod Array.length eps_choices));
    let a = random_bytes (width * 8) in
    let b = Bytes.copy a in
    Prng_ref.xor_noise_blocked rng ~offset ~stride ~width ~thr ~thr_pos:0 a
      ~pos:0;
    Kernels.xor_noise_blocked rng ~offset ~stride ~width ~thr ~thr_pos:0 b
      ~pos:0;
    Alcotest.(check bytes)
      (Printf.sprintf "single-threshold trial %d" trial)
      a b;
    (* Multi-lane: lanes+1 thresholds, word 0 the row maximum. *)
    let lanes = 1 + (trial mod 4) in
    check_lanes ~offset ~stride ~width
      (Printf.sprintf "multi-lane trial %d" trial)
      (Array.init lanes (fun k ->
           eps_choices.((trial + k) mod Array.length eps_choices)))
  done;
  (* The grid shapes the tools run, at every block width and with the
     rows and flips off the buffers' starts: explore's five-point list
     (row maximum 0.1, a few candidate bits per word), [sweep delta]'s
     40 lanes up to 0.49 (most bits candidates), lanes at zero next to
     live ones, a row maximum of 0.05 (words with one to three
     candidates and words with more), and row bounds looser than the
     largest lane, as word 0 may be. *)
  let explore = [| 0.001; 0.005; 0.01; 0.05; 0.1 |] in
  let delta = Array.init 40 (fun i -> 0.49 *. float_of_int (i + 1) /. 40.) in
  for width = 1 to 8 do
    let offset = Prng.int scraps ~bound:5000 in
    let stride = 64 + Prng.int scraps ~bound:400 in
    let at label = Printf.sprintf "%s width %d" label width in
    check_lanes ~offset ~stride ~width (at "explore") explore;
    check_lanes ~thr_pos:40 ~pos:24 ~offset ~stride ~width
      (at "explore, row at 40, flips at 24")
      explore;
    check_lanes ~offset ~stride ~width (at "sweep delta") delta;
    check_lanes ~thr_pos:8 ~pos:8 ~offset ~stride ~width
      (at "sweep delta, row at 8, flips at 8")
      delta;
    check_lanes ~offset ~stride ~width (at "zero lanes")
      [| 0.; 0.05; 0.; 0.3; 0. |];
    check_lanes ~offset ~stride ~width (at "all lanes zero") [| 0.; 0.; 0. |];
    check_lanes ~offset ~stride ~width (at "row maximum 0.05")
      [| 0.05; 0.02; 0.01; 0.04 |];
    check_lanes
      ~tmax:(Prng.threshold_bits ~p:0.3)
      ~thr_pos:16 ~pos:16 ~offset ~stride ~width
      (at "row bound 0.3 over lanes to 0.1")
      explore;
    check_lanes
      ~tmax:(Prng.threshold_bits ~p:0.5)
      ~offset ~stride ~width (at "row bound 1/2 over small lanes")
      [| 0.001; 0.01; 0. |];
    check_lanes ~offset ~stride ~width (at "one lane") [| 0.01 |];
    (* Lanes at the row maximum take the candidate mask with no
       compare; a lane above a row bound is clamped to it. *)
    check_lanes ~offset ~stride ~width (at "three lanes tie the maximum")
      [| 0.1; 0.05; 0.1; 0.001; 0.1 |];
    check_lanes ~offset ~stride ~width (at "sparse words, tied lanes")
      [| 0.03; 0.01; 0.03 |];
    check_lanes
      ~tmax:(Prng.threshold_bits ~p:0.05)
      ~thr_pos:24 ~pos:8 ~offset ~stride ~width
      (at "lanes above a row bound of 0.05")
      [| 0.1; 0.01; 0.05; 0.3 |];
    (* The dispatch runs one lane on the single-threshold kernel at the
       smaller of word 0 and the lane, as the lanes kernel clamps. *)
    check_lanes
      ~tmax:(Prng.threshold_bits ~p:0.02)
      ~offset ~stride ~width
      (at "one lane above its row bound")
      [| 0.2 |]
  done;
  List.iter
    (fun level ->
      Alcotest.(check bool) (level ^ " runs") true (Hashtbl.mem ran level))
    [ "scalar"; Prng.simd_level () ];
  (* One lane runs the single-threshold kernel, which must read lane 0's
     threshold when word 0 is a looser row bound; the row sits past a
     foreign word, as packed rows do. *)
  let lthr = random_bytes 24 in
  set64 lthr 8 (Prng.threshold_bits ~p:0.5);
  set64 lthr 16 (Prng.threshold_bits ~p:0.01);
  let da = [| random_bytes 64 |] in
  let db = Array.map Bytes.copy da in
  Prng_ref.xor_noise_lanes_blocked rng ~offset:3 ~stride:70 ~width:8
    ~thr:lthr ~thr_pos:8 ~lanes:1 da ~pos:0;
  Kernels.xor_noise_lanes_blocked rng ~offset:3 ~stride:70 ~width:8 ~thr:lthr
    ~thr_pos:8 ~lanes:1 db ~pos:0;
  Alcotest.(check bytes) "one lane under a loose row bound" da.(0) db.(0);
  Alcotest.check_raises "unknown level"
    (Invalid_argument
       "Nano_util.Prng.For_testing.xor_noise_lanes_blocked_at_level: unknown \
        level sse2")
    (fun () ->
      ignore
        (Kernels.xor_noise_lanes_blocked_at_level ~level:"sse2" rng ~offset:0
           ~stride:64 ~width:1 ~thr:lthr ~thr_pos:0 ~lanes:1 da ~pos:0))

(* The resolved dispatch level is what the benchmark and the service
   stats record; it must be one of the four known names. *)
let test_simd_level_known () =
  let level = Prng.simd_level () in
  Alcotest.(check bool)
    (Printf.sprintf "known level %s" level)
    true
    (List.mem level [ "scalar"; "avx2"; "avx512"; "neon" ])

(* The stimulus store stub must reproduce the pure-OCaml reference bit
   for bit: every width the blocked kernel uses (and a ragged tail),
   scattered/strided destinations, densities from degenerate (0, 1) to
   values straddling the p = 1/2 fast path and the ceil(p*2^53)
   rounding edge. *)
let test_stimulus_stub_matches_reference () =
  let rng = Prng.create ~seed:0x57e1 in
  let scraps = Prng.create ~seed:0xfee2 in
  let set64 b pos v = Bytes.set_int64_le b pos v in
  let random_bytes len =
    let b = Bytes.create len in
    for i = 0 to (len / 8) - 1 do
      set64 b (i * 8) (Prng.bits64 scraps)
    done;
    b
  in
  let p_choices =
    [|
      0.; 1e-9; Float.ldexp 1. (-53); 0.1; Float.pred 0.5; 0.5;
      Float.succ 0.5; 0.9; 1. -. Float.ldexp 1. (-53); 1.;
    |]
  in
  List.iter
    (fun width ->
      for trial = 0 to 9 do
        let p = p_choices.((trial + width) mod Array.length p_choices) in
        let offset = Prng.int scraps ~bound:1000 in
        let stride = 1 + Prng.int scraps ~bound:200 in
        (* Words land [pos_stride] bytes apart starting at a ragged
           [pos], as in the blocked kernel's position-major buffers;
           bytes between words must survive untouched. *)
        let pos = 8 * Prng.int scraps ~bound:3 in
        let pos_stride = 8 * (1 + Prng.int scraps ~bound:4) in
        let len = pos + ((width - 1) * pos_stride) + 8 in
        let a = random_bytes len in
        let b = Bytes.copy a in
        Prng_ref.store_words_with_density_at rng ~offset ~stride ~width ~p a
          ~pos ~pos_stride;
        Prng.store_words_with_density_at rng ~offset ~stride ~width ~p b ~pos
          ~pos_stride;
        Alcotest.(check bytes)
          (Printf.sprintf "width %d trial %d (p=%h)" width trial p)
          a b
      done)
    [ 1; 4; 8; 16 ]

let prop_stimulus_density_sweep =
  QCheck2.Test.make ~name:"stimulus stub = reference across densities"
    ~count:100
    QCheck2.Gen.(
      triple (float_bound_inclusive 1.) (int_range 1 16) (int_range 0 5000))
    (fun (p, width, offset) ->
      let rng = Prng.create ~seed:0xd1ce in
      let a = Bytes.make (width * 8) '\000' in
      let b = Bytes.make (width * 8) '\000' in
      Prng_ref.store_words_with_density_at rng ~offset ~stride:64 ~width ~p a
        ~pos:0 ~pos_stride:8;
      Prng.store_words_with_density_at rng ~offset ~stride:64 ~width ~p b
        ~pos:0 ~pos_stride:8;
      Bytes.equal a b)

(* The stimulus draw-stream contract that seed-sharded simulation leans
   on: word [j] of a positioned store is EXACTLY the word a sequential
   generator draws after jumping [offset + j * draws_per_word ~p] —
   one draw per word at p = 1/2, 64 otherwise, including both boundary
   densities and values around the rounding edge. *)
let test_stimulus_draw_stream_contract () =
  let seed = 0xa11a in
  List.iter
    (fun p ->
      let dpw = Prng.draws_per_word ~p in
      Alcotest.(check int)
        (Printf.sprintf "draws per word at p=%h" p)
        (if p = 0.5 then 1 else 64)
        dpw;
      let width = 5 in
      let shard_offset = 3 * dpw in
      let blk = Bytes.make (width * 8) '\000' in
      let rng = Prng.create ~seed in
      Prng.store_words_with_density_at rng ~offset:shard_offset ~stride:dpw
        ~width ~p blk ~pos:0 ~pos_stride:8;
      for j = 0 to width - 1 do
        let seq = Prng.create ~seed in
        Prng.jump seq ~draws:(shard_offset + (j * dpw));
        Alcotest.(check int64)
          (Printf.sprintf "p=%h word %d aligns with jumped stream" p j)
          (Prng.word_with_density seq ~p)
          (Bytes.get_int64_ne blk (8 * j))
      done;
      (* Degenerate densities store constants — and still consume the
         advertised 64 draws, never fewer. *)
      if p = 0. then
        for j = 0 to width - 1 do
          Alcotest.(check int64)
            (Printf.sprintf "p=0 word %d is zero" j)
            0L
            (Bytes.get_int64_ne blk (8 * j))
        done;
      if p = 1. then
        for j = 0 to width - 1 do
          Alcotest.(check int64)
            (Printf.sprintf "p=1 word %d is all-ones" j)
            (-1L)
            (Bytes.get_int64_ne blk (8 * j))
        done)
    [
      0.; 1.; 0.5; Float.pred 0.5; Float.succ 0.5; Float.ldexp 1. (-53);
      1. -. Float.ldexp 1. (-53); 0.1; 0.9;
    ]

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "jump equals draws" `Quick test_jump_equals_draws;
    Alcotest.test_case "draws per word" `Quick test_draws_per_word;
    Alcotest.test_case "int unbiased" `Quick test_int_unbiased;
    Alcotest.test_case "invalid probabilities" `Quick
      test_invalid_probabilities;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli" `Quick test_bernoulli;
    Alcotest.test_case "int bound" `Quick test_int_bound;
    Alcotest.test_case "word density" `Quick test_word_density;
    Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
    Alcotest.test_case "blocked noise stubs match OCaml reference" `Quick
      test_blocked_noise_stub_matches_reference;
    Alcotest.test_case "simd level is known" `Quick test_simd_level_known;
    Alcotest.test_case "stimulus stub matches OCaml reference" `Quick
      test_stimulus_stub_matches_reference;
    Helpers.qcheck prop_stimulus_density_sweep;
    Alcotest.test_case "stimulus draw-stream contract" `Quick
      test_stimulus_draw_stream_contract;
  ]
