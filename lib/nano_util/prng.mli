(** Deterministic pseudo-random number generator.

    A small SplitMix64 implementation so that simulations are reproducible
    independent of the OCaml stdlib [Random] implementation, and so that
    parallel shards can replay disjoint segments of one stream via
    {!jump}. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator; equal seeds give equal
    streams. *)

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

val state_buffer : t -> Bytes.t
(** The buffer holding [t]'s state, the 64-bit word at byte 0, for C
    kernels that draw positioned noise from it (Nano_netlist.Compiled's
    grid pass). They read the state and never write it. *)

val threshold_bits : p:float -> int64
(** [threshold_bits ~p] is [ceil (p * 2^53)] — the integer threshold [T]
    such that a 53-bit uniform [u] satisfies [u * 2^-53 < p] exactly
    when [u < T] (both scalings are exact, so the comparison reproduces
    the float rule bit-for-bit). Requires [0. <= p <= 1.]. *)

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

val draws_per_word : p:float -> int
(** Number of {!bits64} calls one [word_with_density ~p] consumes (1 when
    [p = 0.5], 64 otherwise) — the constant needed to {!jump} over
    simulation words. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle driven by this generator. *)

(** The noise kernels' own entry points. The Monte-Carlo grid pass runs
    these kernels from C; the entries exist so that differential tests
    can pin each kernel, at every SIMD level this machine runs, to an
    independent reference of the same stream. *)
module For_testing : sig
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
      on that stream segment, XORed in as noise. Does not mutate [t]. *)

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
  (** Multi-lane variant of {!xor_noise_blocked}, as the grid pass runs
      it: for each word [j < width], draw that word's 64 uniforms from
      stream position [offset + j*stride] and, for each lane [k], flip
      bit [i] of the word at byte offset [pos + 8*j] of [dst.(k)] when
      the uniform falls below both word 0 and lane [k]'s threshold.
      [thr] holds [lanes + 1] packed int64 thresholds at [thr_pos]:
      word 0 an upper bound on the rest (the early-out), words 1..lanes
      the per-lane values from {!threshold_bits}. One shared uniform per
      bit position per word is the common-random-numbers coupling of
      the grid kernel: flip sets are nested in the threshold. Consumes
      64 draws per word whatever [lanes] is.

      The C kernel computes each word's 64 uniforms once, across all
      lanes. A word with no uniform below word 0 writes nothing, and one
      with at most three compares those with each lane; otherwise each
      lane's 64-bit flip mask is built with one compare per lane per
      vector register of uniforms (on AVX-512 joined in mask registers
      and read out once) and XORed into the lane's word once. A lane
      whose threshold reaches word 0 takes the candidate mask of the row
      maximum without a compare. One lane runs the
      {!xor_noise_blocked} kernel at the smaller of word 0 and lane 0
      instead, which is faster there. Requires [lanes >= 1] and at
      least [lanes] buffers in [dst]. Does not mutate [t]. *)

  val xor_noise_lanes_blocked_at_level :
    level:string ->
    t ->
    offset:int ->
    stride:int ->
    width:int ->
    thr:Bytes.t ->
    thr_pos:int ->
    lanes:int ->
    Bytes.t array ->
    pos:int ->
    bool
  (** The multi-lane kernel of {!xor_noise_lanes_blocked} at the named
      kernel family (a {!simd_level} name) rather than the resolved one,
      one lane included, so that every family the machine runs is pinned.
      Returns [false], writing nothing, when this machine cannot run
      [level]; ["scalar"] always runs. Raises [Invalid_argument] for an
      unknown name, [lanes < 1] or fewer than [lanes] buffers in
      [dst]. *)
end
