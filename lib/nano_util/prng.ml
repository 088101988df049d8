(* SplitMix64 (Steele, Lea & Flood 2014).

   The 64-bit state lives in an 8-byte [Bytes.t] buffer instead of a
   boxed [int64] record field. Classic (non-flambda) ocamlopt cannot
   eliminate the box a mutable [int64] field forces on every state
   update, but it does unbox let-bound [int64]s whose uses are all
   unboxing contexts — and the raw load/store primitives below are such
   contexts. With [mix]/[bits64]/[float] marked [@inline], every draw in
   the Monte-Carlo inner loops compiles to straight register arithmetic
   with zero heap allocation. The buffer holds 16 bytes: the state word
   at offset 0 and a scratch word at offset 8 used by
   {!word_with_density} to build its result without a boxed
   accumulator. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = { buf : Bytes.t }

let state_pos = 0
let scratch_pos = 8

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let buf = Bytes.make 16 '\000' in
  set64 buf state_pos s;
  { buf }

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get64 t.buf state_pos) golden_gamma in
  set64 t.buf state_pos s;
  mix s

let split t = of_state (mix (bits64 t))

let copy t = of_state (get64 t.buf state_pos)

let jump t ~draws =
  if draws < 0 then invalid_arg "Nano_util.Prng.jump: draws must be >= 0";
  (* [bits64] advances the state by one gamma per call, so skipping
     [draws] calls is a single wrapping multiply-add. *)
  set64 t.buf state_pos
    (Int64.add (get64 t.buf state_pos)
       (Int64.mul (Int64.of_int draws) golden_gamma))

let[@inline] float t =
  (* 53 high-quality bits -> [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t ~p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Nano_util.Prng.bernoulli: p must lie in [0, 1]";
  float t < p

let int t ~bound =
  if bound <= 0 then invalid_arg "Nano_util.Prng.int: bound must be > 0";
  let b = Int64.of_int bound in
  if Int64.logand b (Int64.sub b 1L) = 0L then
    (* Power-of-two bound: the low bits of a 63-bit draw are exactly
       uniform already. *)
    Int64.to_int (Int64.logand (Int64.shift_right_logical (bits64 t) 1) (Int64.sub b 1L))
  else begin
    (* Rejection sampling over 63-bit draws: accept only values below the
       largest multiple of [bound] that fits, so every residue is equally
       likely (no modulo bias). The rejected tail holds fewer than
       [bound] of the 2^63 values, so retries are vanishingly rare and
       the accepted stream coincides with a plain modulo draw. *)
    let limit = Int64.mul b (Int64.div Int64.max_int b) in
    let rec draw () =
      let x = Int64.shift_right_logical (bits64 t) 1 in
      if Int64.compare x limit < 0 then Int64.to_int (Int64.rem x b)
      else draw ()
    in
    draw ()
  end

let[@inline] check_density p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Nano_util.Prng.word_with_density: p must lie in [0, 1]"

(* A density word consumes 1 draw when p = 0.5, else 64 (see
   [draws_per_word]): seed-sharded simulation jumps over words by that
   constant, and the positioned primitives below address it. *)
let word_with_density t ~p =
  check_density p;
  if p = 0.5 then bits64 t
  else begin
    set64 t.buf scratch_pos 0L;
    for i = 0 to 63 do
      if float t < p then
        set64 t.buf scratch_pos
          (Int64.logor (get64 t.buf scratch_pos) (Int64.shift_left 1L i))
    done;
    get64 t.buf scratch_pos
  end

(* ------------------------------------------------------------------ *)
(* Positioned blocked draws.                                            *)
(*                                                                      *)
(* The blocked simulation kernel (Nano_netlist.Compiled) interleaves    *)
(* several 64-vector words per gate visit, while the PRNG discipline    *)
(* demands that each word consume ITS OWN fixed segment of the          *)
(* sequential stream in the canonical order. SplitMix64 makes the two   *)
(* compatible at zero cost: the state after [d] draws is               *)
(* [s0 + d * gamma], so a draw at any offset is one multiply-add away.  *)
(* The primitives below read [t]'s state, synthesize the states of      *)
(* several stream positions [offset, offset + stride, ...] as local     *)
(* unboxed int64s, and never mutate [t] — the caller jumps the          *)
(* generator past the block once, keeping draw accounting exact.        *)
(*                                                                      *)
(* Flip decisions compare the 53 uniform bits against an INTEGER        *)
(* threshold instead of converting every draw to a float:               *)
(* [u * 2^-53 < p  <=>  u < ceil(p * 2^53)] exactly, because [u] is an  *)
(* integer below 2^53 and both [Int64.to_float u *. 2^-53] and          *)
(* [p *. 2^53] are exact (power-of-two scalings of exactly              *)
(* representable values). The branch-free accumulate                    *)
(* [(u - T) >>> 63] keeps the 64-draw loop free of unpredictable        *)
(* branches; the operands stay below 2^53 so the subtraction cannot     *)
(* wrap. These paths are bit-identical to the [float t < p] rule        *)
(* [word_with_density] applies.                                         *)
(* ------------------------------------------------------------------ *)

let two53 = 9007199254740992.

let threshold_bits ~p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Nano_util.Prng.threshold_bits: p must lie in [0, 1]";
  Int64.of_float (Float.ceil (p *. two53))

let[@inline] state_at t offset =
  Int64.add (get64 t.buf state_pos)
    (Int64.mul (Int64.of_int offset) golden_gamma)

let xor_noise_blocked_ref t ~offset ~stride ~width ~thr ~thr_pos dst ~pos =
  (* The threshold travels through a byte buffer, not an [int64]
     argument: loaded from the caller's packed thresholds it would need
     a fresh box at this (non-inlinable under [-opaque]) call boundary,
     and the fused simulation loops must stay allocation-free. *)
  let tbits = get64 thr thr_pos in
  let gstride = Int64.mul (Int64.of_int stride) golden_gamma in
  let base = ref (state_at t offset) in
  for j = 0 to width - 1 do
    let s = ref !base in
    let acc = ref 0L in
    for i = 0 to 63 do
      s := Int64.add !s golden_gamma;
      let u = Int64.shift_right_logical (mix !s) 11 in
      acc :=
        Int64.logor !acc
          (Int64.shift_left
             (Int64.shift_right_logical (Int64.sub u tbits) 63)
             i)
    done;
    let p = pos + (j lsl 3) in
    set64 dst p (Int64.logxor (get64 dst p) !acc);
    base := Int64.add !base gstride
  done

let xor_bits64_blocked t ~offset ~stride ~width dst ~pos =
  let gstride = Int64.mul (Int64.of_int stride) golden_gamma in
  let base = ref (state_at t offset) in
  for j = 0 to width - 1 do
    let p = pos + (j lsl 3) in
    set64 dst p (Int64.logxor (get64 dst p) (mix (Int64.add !base golden_gamma)));
    base := Int64.add !base gstride
  done

let xor_noise_lanes_blocked_ref t ~offset ~stride ~width ~thr ~thr_pos ~lanes
    (dst : Bytes.t array) ~pos =
  if lanes < 1 then
    invalid_arg "Nano_util.Prng.xor_noise_lanes_blocked: lanes must be >= 1";
  if Array.length dst < lanes then
    invalid_arg
      "Nano_util.Prng.xor_noise_lanes_blocked: fewer destination buffers than \
       lanes";
  let tmax = get64 thr thr_pos in
  let gstride = Int64.mul (Int64.of_int stride) golden_gamma in
  let base = ref (state_at t offset) in
  for j = 0 to width - 1 do
    let s = ref !base in
    let q = pos + (j lsl 3) in
    for i = 0 to 63 do
      s := Int64.add !s golden_gamma;
      let u = Int64.shift_right_logical (mix !s) 11 in
      (* Early-out against the row maximum: at small thresholds the
         common case is that no lane flips, and both operands are below
         2^53, so the wrapped [to_int] difference carries the sign. *)
      if Int64.to_int (Int64.sub u tmax) < 0 then
        for k = 0 to lanes - 1 do
          if
            Int64.to_int (Int64.sub u (get64 thr (thr_pos + ((k + 1) lsl 3))))
            < 0
          then begin
            let b = Array.unsafe_get dst k in
            set64 b q (Int64.logxor (get64 b q) (Int64.shift_left 1L i))
          end
        done
    done;
    base := Int64.add !base gstride
  done

(* The two noise kernels above are the reference implementations; the
   production entry points below call C stubs (prng_stubs.c) that
   compute the identical draws 4 or 8 at a time with SIMD where the CPU
   has it. The positioned-draw scheme (states form an arithmetic
   progression, nothing mutates [t]) is what makes the draws data-
   parallel; differential tests pin the stubs to the reference. *)

external xor_noise_blocked_stub :
  Bytes.t -> int -> int -> int -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "nano_prng_xor_noise_blocked_bytes" "nano_prng_xor_noise_blocked"
[@@noalloc]

external xor_noise_lanes_blocked_stub :
  Bytes.t ->
  int ->
  int ->
  int ->
  Bytes.t ->
  int ->
  int ->
  Bytes.t array ->
  int ->
  unit
  = "nano_prng_xor_noise_lanes_blocked_bytes" "nano_prng_xor_noise_lanes_blocked"
[@@noalloc]

external simd_width : unit -> int = "nano_prng_simd_width" [@@noalloc]
external simd_level_id : unit -> int = "nano_prng_simd_level" [@@noalloc]

let simd_level () =
  match simd_level_id () with
  | 1 -> "avx2"
  | 2 -> "avx512"
  | 3 -> "neon"
  | _ -> "scalar"

external store_density_blocked_stub :
  Bytes.t ->
  int ->
  int ->
  int ->
  Bytes.t ->
  int ->
  Bytes.t ->
  int ->
  int ->
  unit
  = "nano_prng_store_density_blocked_bytes" "nano_prng_store_density_blocked"
[@@noalloc]

let xor_noise_blocked t ~offset ~stride ~width ~thr ~thr_pos dst ~pos =
  xor_noise_blocked_stub t.buf offset stride width thr thr_pos dst pos

let xor_noise_lanes_blocked t ~offset ~stride ~width ~thr ~thr_pos ~lanes
    (dst : Bytes.t array) ~pos =
  if lanes < 1 then
    invalid_arg "Nano_util.Prng.xor_noise_lanes_blocked: lanes must be >= 1";
  if Array.length dst < lanes then
    invalid_arg
      "Nano_util.Prng.xor_noise_lanes_blocked: fewer destination buffers than \
       lanes";
  xor_noise_lanes_blocked_stub t.buf offset stride width thr thr_pos lanes dst
    pos

let store_words_with_density_at_ref t ~offset ~stride ~width ~p dst ~pos
    ~pos_stride =
  check_density p;
  let gstride = Int64.mul (Int64.of_int stride) golden_gamma in
  let base = ref (state_at t offset) in
  if p = 0.5 then
    for j = 0 to width - 1 do
      set64 dst (pos + (j * pos_stride)) (mix (Int64.add !base golden_gamma));
      base := Int64.add !base gstride
    done
  else begin
    let tbits = Int64.of_float (Float.ceil (p *. two53)) in
    for j = 0 to width - 1 do
      let s = ref !base in
      let acc = ref 0L in
      for i = 0 to 63 do
        s := Int64.add !s golden_gamma;
        let u = Int64.shift_right_logical (mix !s) 11 in
        acc :=
          Int64.logor !acc
            (Int64.shift_left
               (Int64.shift_right_logical (Int64.sub u tbits) 63)
               i)
      done;
      set64 dst (pos + (j * pos_stride)) !acc;
      base := Int64.add !base gstride
    done
  end

let store_words_with_density_at t ~offset ~stride ~width ~p dst ~pos
    ~pos_stride =
  check_density p;
  if p = 0.5 then begin
    (* One draw per word; too little arithmetic for the stub to win. *)
    let gstride = Int64.mul (Int64.of_int stride) golden_gamma in
    let base = ref (state_at t offset) in
    for j = 0 to width - 1 do
      set64 dst (pos + (j * pos_stride)) (mix (Int64.add !base golden_gamma));
      base := Int64.add !base gstride
    done
  end
  else begin
    (* The integer threshold travels through the scratch word of [t]'s
       own buffer: the stub reads the state at byte 0 and the threshold
       at [scratch_pos], so the call passes only immediates and existing
       pointers — no box, no allocation ([@@noalloc] holds). *)
    set64 t.buf scratch_pos (Int64.of_float (Float.ceil (p *. two53)));
    store_density_blocked_stub t.buf offset stride width t.buf scratch_pos dst
      pos pos_stride
  end

let draws_per_word ~p = if p = 0.5 then 1 else 64

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
