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

let state_buffer t = t.buf

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

(* The draw kernels are C (prng_stubs.c): they compute the draws 2, 4
   or 8 at a time with SIMD where the CPU has it. The positioned-draw
   scheme (states form an arithmetic progression, nothing mutates [t])
   is what makes the draws data-parallel; differential tests pin the
   kernels to an OCaml reference of the stream. *)

external simd_level_id : unit -> int = "nano_prng_simd_level" [@@noalloc]

let simd_level_names = [| "scalar"; "avx2"; "avx512"; "neon" |]

let simd_level () = simd_level_names.(simd_level_id ())

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

module For_testing = struct
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
    = "nano_prng_xor_noise_lanes_blocked_bytes"
      "nano_prng_xor_noise_lanes_blocked"
  [@@noalloc]

  external xor_noise_lanes_blocked_level_stub :
    int ->
    Bytes.t ->
    int ->
    int ->
    int ->
    Bytes.t ->
    int ->
    int ->
    Bytes.t array ->
    int ->
    bool
    = "nano_prng_xor_noise_lanes_blocked_level_bytes"
      "nano_prng_xor_noise_lanes_blocked_level"
  [@@noalloc]

  let xor_noise_blocked t ~offset ~stride ~width ~thr ~thr_pos dst ~pos =
    xor_noise_blocked_stub t.buf offset stride width thr thr_pos dst pos

  let check_lanes name ~lanes dst =
    if lanes < 1 || Array.length dst < lanes then
      invalid_arg
        ("Nano_util.Prng.For_testing." ^ name
       ^ ": need lanes >= 1 and a destination buffer per lane")

  let xor_noise_lanes_blocked t ~offset ~stride ~width ~thr ~thr_pos ~lanes
      (dst : Bytes.t array) ~pos =
    check_lanes "xor_noise_lanes_blocked" ~lanes dst;
    xor_noise_lanes_blocked_stub t.buf offset stride width thr thr_pos lanes
      dst pos

  let xor_noise_lanes_blocked_at_level ~level t ~offset ~stride ~width ~thr
      ~thr_pos ~lanes (dst : Bytes.t array) ~pos =
    let name = "xor_noise_lanes_blocked_at_level" in
    let id =
      match Array.find_index (String.equal level) simd_level_names with
      | Some id -> id
      | None ->
        invalid_arg
          ("Nano_util.Prng.For_testing." ^ name ^ ": unknown level " ^ level)
    in
    check_lanes name ~lanes dst;
    xor_noise_lanes_blocked_level_stub id t.buf offset stride width thr thr_pos
      lanes dst pos
end
