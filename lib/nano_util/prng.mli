(** Deterministic splittable pseudo-random number generator.

    A small SplitMix64 implementation so that simulations are reproducible
    independent of the OCaml stdlib [Random] implementation, and so that
    parallel experiment legs can draw from decorrelated streams via
    {!split}. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator; equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from the parent's subsequent output. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream. *)

val jump : t -> draws:int -> unit
(** [jump t ~draws] advances [t] past exactly [draws] {!bits64} calls in
    O(1), landing on the same state that [draws] sequential calls would
    reach. This is what lets parallel shards replay disjoint segments of
    one sequential stream bit-for-bit: each shard creates the seed
    generator and jumps to its segment's offset. Draw accounting:
    {!float}, {!bool} and {!bernoulli} consume one [bits64] call each;
    {!word_with_density} consumes one when [p = 0.5] and 64 otherwise
    (see {!draws_per_word}); {!int} consumes a variable number and is
    not jumpable. Requires [draws >= 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val float : t -> float
(** [float t] draws uniformly from [[0, 1)] with 53-bit resolution. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. Requires
    [0. <= p <= 1.]. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [[0, bound)] by rejection
    sampling (exactly uniform, no modulo bias). Consumes a variable
    number of [bits64] draws. Requires [bound > 0]. *)

val word_with_density : t -> p:float -> int64
(** [word_with_density t ~p] returns a 64-bit word in which each bit is
    independently one with probability [p]; used by bit-parallel
    simulation. *)

(** {1 Positioned blocked draws}

    Primitives for the blocked wide-word simulation kernel. Each one
    synthesizes the generator states [offset], [offset + stride],
    [offset + 2*stride], ... draws ahead of [t]'s current state (an O(1)
    multiply-add under SplitMix64) and consumes one word-segment of the
    canonical stream per synthesized state — WITHOUT mutating [t]. The
    caller advances the generator past the whole block with one {!jump},
    so draw accounting stays exact whatever the interleave. Flip
    decisions use integer thresholds ({!threshold_bits}) and are
    bit-identical to the [float t < p] rule of {!word_with_density}.
    Offsets into the byte buffers are unchecked: the caller guarantees
    that every 8-byte word written lies inside the buffer. *)

val threshold_bits : p:float -> int64
(** [threshold_bits ~p] is [ceil (p * 2^53)] — the integer threshold [T]
    such that a 53-bit uniform [u] satisfies [u * 2^-53 < p] exactly
    when [u < T] (both scalings are exact, so the comparison reproduces
    the float rule bit-for-bit). Requires [0. <= p <= 1.]. *)

val xor_noise_blocked :
  t ->
  offset:int ->
  stride:int ->
  width:int ->
  thr:Bytes.t ->
  thr_pos:int ->
  Bytes.t ->
  pos:int ->
  unit
(** [xor_noise_blocked t ~offset ~stride ~width ~thr ~thr_pos dst ~pos]
    XORs [width] density words into [dst] at byte offsets
    [pos, pos + 8, ...]: word [j] is built from the 64 draws starting
    [offset + j*stride] draws ahead of [t]'s state, thresholded at the
    {!threshold_bits} value read from [thr] at byte offset [thr_pos] —
    exactly the bits {!word_with_density}'s [p <> 0.5] path would set
    on that stream segment, XORed in as noise. The threshold travels
    through a byte buffer rather than an [int64] argument: [-opaque] dev
    builds prevent cross-library inlining, and a boxed argument would
    allocate at every call. Branch-free; does not mutate [t]. *)

val xor_bits64_blocked :
  t -> offset:int -> stride:int -> width:int -> Bytes.t -> pos:int -> unit
(** The [p = 0.5] counterpart of {!xor_noise_blocked}: word [j] is the
    single raw draw at stream position [offset + j*stride] (one draw per
    word, matching [draws_per_word ~p:0.5 = 1]). *)

val xor_noise_lanes_blocked :
  t ->
  offset:int ->
  stride:int ->
  width:int ->
  thr:Bytes.t ->
  thr_pos:int ->
  lanes:int ->
  Bytes.t array ->
  pos:int ->
  unit
(** Multi-lane variant of {!xor_noise_blocked}: for each word
    [j < width], draw that word's 64 uniforms from stream position
    [offset + j*stride] and, for each lane [k], flip bit [i] of the word
    at byte offset [pos + 8*j] of [dst.(k)] when the uniform falls below
    lane [k]'s threshold. [thr] holds [lanes + 1] packed int64
    thresholds at [thr_pos]: word 0 an upper bound on the rest (the
    early-out), words 1..lanes the per-lane values from
    {!threshold_bits}. One shared uniform per bit position per word is
    the common-random-numbers coupling of the grid kernel: flip sets are
    nested in the threshold, and each lane flips exactly the bits
    {!xor_noise_blocked} would at that lane's threshold. Consumes 64
    draws per word whatever [lanes] is, so callers can change the lane
    set without shifting the stream. Requires [lanes >= 1] and at least
    [lanes] buffers in [dst]. Does not mutate [t]. *)

val xor_noise_blocked_ref :
  t ->
  offset:int ->
  stride:int ->
  width:int ->
  thr:Bytes.t ->
  thr_pos:int ->
  Bytes.t ->
  pos:int ->
  unit
(** Pure-OCaml reference implementation of {!xor_noise_blocked}. The
    production function runs a C stub that computes the same draws 4/8
    at a time with SIMD; this one exists so differential tests can pin
    the stub to the canonical stream bit-for-bit. *)

val xor_noise_lanes_blocked_ref :
  t ->
  offset:int ->
  stride:int ->
  width:int ->
  thr:Bytes.t ->
  thr_pos:int ->
  lanes:int ->
  Bytes.t array ->
  pos:int ->
  unit
(** Pure-OCaml reference implementation of {!xor_noise_lanes_blocked};
    same role as {!xor_noise_blocked_ref}. *)

val simd_width : unit -> int
(** Draws per SIMD step of the C noise kernels on this machine: 8
    (AVX-512), 4 (AVX2), 2 (NEON) or 1 (portable scalar).
    Informational — results are bit-identical on every path. *)

val simd_level : unit -> string
(** Name of the kernel family the load-time dispatch resolved to:
    ["scalar"], ["avx2"], ["avx512"] or ["neon"]. Recorded in BENCH
    files and the service stats so numbers can be traced to the kernel
    that produced them. *)

val store_words_with_density_at :
  t ->
  offset:int ->
  stride:int ->
  width:int ->
  p:float ->
  Bytes.t ->
  pos:int ->
  pos_stride:int ->
  unit
(** [store_words_with_density_at t ~offset ~stride ~width ~p dst ~pos
    ~pos_stride] stores [width] density-[p] words at byte offsets
    [pos, pos + pos_stride, ...]: word [j] consumes the
    [draws_per_word ~p] draws starting [offset + j*stride] ahead of
    [t]'s state, producing exactly the word {!word_with_density} would
    draw there. Does not mutate [t], except that the [p <> 0.5] path
    (a SIMD C stub, like the noise kernels) clobbers the private
    scratch word of [t]'s buffer to pass the integer threshold without
    boxing. *)

val store_words_with_density_at_ref :
  t ->
  offset:int ->
  stride:int ->
  width:int ->
  p:float ->
  Bytes.t ->
  pos:int ->
  pos_stride:int ->
  unit
(** Pure-OCaml reference implementation of
    {!store_words_with_density_at}; same role as
    {!xor_noise_blocked_ref}. *)

val draws_per_word : p:float -> int
(** Number of {!bits64} calls one [word_with_density ~p] consumes (1 when
    [p = 0.5], 64 otherwise) — the constant needed to {!jump} over
    simulation words. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle driven by this generator. *)
