(** Compiled netlists: a flat structure-of-arrays program for the
    Monte-Carlo hot paths.

    {!of_netlist} lowers a {!Netlist.t} once into a level-ordered opcode
    array, a CSR fanin encoding and packed source/output/noise tables;
    the [exec_*_blocked] and [run_noisy_*] entry points then evaluate
    blocks of 64-vector words with no per-gate allocation and no
    dispatch through closures. Results are bit-identical to the
    interpretive walk over [Netlist.iter] / [Gate.eval_word] — the
    compiled form only changes how the same arithmetic is reached.

    Node values live in packed blocked byte buffers
    ({!create_values_blocked}). Buffers are plain [Bytes.t] so callers
    can keep several (golden, noisy, previous-cycle, ...) and reuse them
    across blocks; none of the functions here allocate on the per-word
    path. *)

type t

(** {1 Lowering} *)

val of_netlist : ?block:int -> Netlist.t -> t
(** Compiled form of the netlist, memoized per physical
    [(Netlist.t, block width)] pair (weak ephemeron cache keyed on the
    netlist, one entry per width, safe to call from any domain):
    repeated calls for the same netlist and width return the same
    compiled program without re-lowering, and mixed-width callers
    neither thrash the cache nor receive a layout they did not ask for.
    [block] is the blocked engine's words-per-gate-visit width in
    [[1, 16]], defaulting to {!default_block_width}. *)

val compile : ?block:int -> Netlist.t -> t
(** Always lowers afresh, bypassing the memo table. Prefer
    {!of_netlist}. *)

val default_block_width : unit -> int
(** The block width {!of_netlist} uses when none is given: 8 words
    (512 effective lanes), overridable via the [NANOBOUND_BLOCK_WIDTH]
    environment variable (clamped to [[1, 16]]; read once per
    process). *)

val block_width : t -> int
(** The width this program was compiled for. *)

val cached_block_widths : unit -> int list
(** Sorted, deduplicated block widths compiled since process start
    (surfaced by the evaluation service's [stats] request under
    [compiled_programs]). Like {!memo_stats} this is process-lifetime
    accounting: widths remain listed even after their programs die with
    their netlists or {!clear_cache}. *)

val clear_cache : unit -> unit
(** Drop every memoized compiled program. The cache is keyed weakly, so
    entries already vanish with their netlists; this lets a long-running
    process (the evaluation daemon) shed programs whose netlists are
    still alive in its own caches. Subsequent {!of_netlist} calls simply
    re-lower. *)

type memo_stats = { memo_hits : int; memo_misses : int }
(** Cumulative {!of_netlist} memo-table accounting since process start
    (monotonic; {!clear_cache} does not reset it). *)

val memo_stats : unit -> memo_stats

(** {1 Structure} *)

val node_count : t -> int

val input_ids : t -> int array
(** Primary-input node ids in declaration order. Shared with the
    compiled program — do not mutate. *)

val output_ids : t -> int array
(** Primary-output node ids in declaration order; shared, do not
    mutate. *)

val output_names : t -> string array
(** Primary-output names, parallel to {!output_ids}; shared, do not
    mutate. *)

val noisy_count : t -> int
(** Number of nodes at which {!run_noisy_words} injects noise (the
    logic gates — sources and buffers are error-free, matching
    [Noisy_sim]). *)

val is_noisy : t -> int -> bool

val opcode : t -> int -> string
(** Human-readable opcode of a node (["and2"], ["xor_n"], ...); for
    debugging and tests. *)

(** {1 Blocked wide-word engine}

    The high-throughput engine: every gate visit processes a block of
    [block_width] words (256/512 effective vector lanes at widths 4/8),
    amortizing opcode dispatch and fanin indexing, and the noisy
    Monte-Carlo passes fuse evaluation, noise injection and counter
    accumulation into ONE sweep over a LEVEL-ordered re-sequencing of
    the program, walked in level-aligned cache segments.

    Blocked buffers are indexed by schedule POSITION, not node id: word
    [j] of the node at position [p] lives at byte [8 * (p*block + j)].
    Use {!get_word_blocked}/{!set_word_blocked}/{!blit_values_blocked}
    for id-addressed access.

    Bit-identity: the blocked engine consumes the canonical PRNG stream
    POSITIONALLY — each gate's draws sit at fixed offsets derived from
    the ascending-node-id layout (inputs_a, noise_a, inputs_b, noise_b
    per word), primitives synthesize generator states in O(1) without
    mutating the generator, and one jump per block advances it — so
    counters are bit-identical to a sequential word-by-word walk of
    that stream (the interpretive [Noisy_sim] engine) at ANY block
    width, any ragged tail, and any shard count. *)

val create_values_blocked : t -> Bytes.t
(** A zeroed blocked buffer of [8 * node_count * block_width] bytes. *)

val get_word_blocked : t -> values:Bytes.t -> id:int -> word:int -> int64
(** Word [word] of node [id] in a blocked buffer. Bounds-checked. *)

val set_word_blocked : t -> values:Bytes.t -> id:int -> word:int -> int64 -> unit

val blit_values_blocked :
  t -> values:Bytes.t -> word:int -> into:int64 array -> unit
(** Copy word column [word] out into an id-indexed [int64 array] of
    length [node_count] (compatibility path, not for hot loops). *)

val copy_input_words_blocked : t -> src:Bytes.t -> dst:Bytes.t -> unit
(** Copy every primary input's whole block of words from [src] to
    [dst]. *)

val draw_input_words_blocked :
  t ->
  Nano_util.Prng.t ->
  offset:int ->
  stride:int ->
  width:int ->
  input_probability:float ->
  values:Bytes.t ->
  unit
(** Positioned blocked input stimulus: input [i]'s word [j < width]
    consumes the [Prng.draws_per_word] draws at stream offset
    [offset + i*draws_per_word + j*stride] ahead of the generator —
    the per-word declaration order transposed onto the block — without
    mutating the generator (the caller jumps once per block). Requires
    [1 <= width <= block_width]. *)

val exec_words_blocked : t -> width:int -> values:Bytes.t -> unit
(** Evaluate every node over the first [width] words in place, in level
    order: input positions must already hold stimulus
    ({!set_word_blocked} / {!draw_input_words_blocked}); every other
    position is overwritten. Column [j] is identical to [Gate.eval_word]
    over [Netlist.iter] on the inputs' words [j]. *)

val exec_step_blocked : t -> width:int -> src:Bytes.t -> dst:Bytes.t -> unit
(** One synchronous unit-delay step over [width] words: every gate
    reads its fanins' values from [src] and writes to [dst]; input
    positions copy through. [src] and [dst] must be distinct blocked
    buffers. *)

(** {2 Counters}

    Counter updates, kept in this compilation unit (with a private
    popcount) because dev builds use [-opaque]: a cross-library
    [Bits.popcount64] call would box each word and the loops would no
    longer be allocation-free. All add into the caller's id-indexed
    accumulators. *)

val add_ones_counts_blocked :
  t -> width:int -> values:Bytes.t -> into:int array -> unit
(** Add each node's population count over the first [width] words to
    [into.(id)] ([node_count] entries). *)

val add_toggle_counts_blocked :
  t -> width:int -> a:Bytes.t -> b:Bytes.t -> into:int array -> unit
(** Add [popcount (a lxor b)] of each node's first [width] words to
    [into.(id)]. *)

val add_output_error_counts_blocked :
  t -> width:int -> golden:Bytes.t -> noisy:Bytes.t -> into:int array -> int
(** Per primary output [i], add the number of lanes (across the first
    [width] words) where [noisy] disagrees with [golden] to [into.(i)]
    ([output_count] entries); returns the number of lanes where at
    least one output disagrees. *)

(** {2 Fused noisy sweeps} *)

type noise_pack
(** Per-node epsilons lowered for the fused per-point sweep: integer
    thresholds ({!Nano_util.Prng.threshold_bits}) plus each noisy gate's
    canonical draw offset, both indexed by schedule position. *)

val pack_noise : t -> float array -> noise_pack
(** [pack_noise c eps] with one epsilon per node id (entries for
    non-noisy nodes ignored), each in [[0, 1/2]]. Pack once per run;
    immutable by convention, shareable across domains. Raises
    [Invalid_argument] naming the offending node otherwise. *)

val noise_draws_per_word : noise_pack -> int
(** Total noise draws one simulated word consumes under this pack
    (64 per noisy gate, except 1 where [epsilon = 1/2]) — the constant
    callers need to compute draws-per-word for stream sharding. *)

val run_noisy_words :
  t ->
  noise:noise_pack ->
  rng:Nano_util.Prng.t ->
  input_probability:float ->
  words:int ->
  golden:Bytes.t ->
  na:Bytes.t ->
  nb:Bytes.t ->
  ones:int array ->
  toggles:int array ->
  out_errors:int array ->
  int
(** The fused per-point Monte-Carlo kernel: simulates [words] 64-vector
    words in blocks of [block_width], computing per block the golden
    evaluation, two noisy replicas (noise_a on the golden stimulus,
    noise_b on fresh stimulus) and ALL counters — ones into
    [ones.(id)], toggles into [toggles.(id)], per-output errors into
    [out_errors.(i)] — in one level-ordered sweep per buffer, segment by
    segment. Returns the any-output-error lane count (the caller adds it
    to its accumulator). [golden]/[na]/[nb] are caller-owned blocked
    buffers ({!create_values_blocked}), reused across blocks so the loop
    allocates nothing. Counters are bit-identical to the sequential
    per-word walk draw-inputs / eval / noisy-eval / draw-inputs /
    noisy-eval / count over the same stream, for any block width.
    Advances [rng] by exactly
    [words * (2 * (inputs*ipw + noise_draws_per_word))] draws. *)

type grid_pack
(** A lane grid lowered for the fused multi-epsilon sweep: one row of
    [lanes + 1] integer thresholds per noisy schedule position, word 0
    the row maximum (early-out). *)

val pack_grid : t -> float array -> grid_pack
(** [pack_grid c eps] with one epsilon per lane, each in [[0, 1/2]]
    (non-empty), for {!run_noisy_grid_words}. Raises [Invalid_argument]
    naming the offending lane and value otherwise. *)

val pack_grid_heterogeneous : t -> float array array -> grid_pack
(** [pack_grid_heterogeneous c eps] with [eps.(k).(id)] lane [k]'s
    epsilon at node [id] ([lanes] rows of [node_count c] entries,
    non-noisy nodes ignored), each in [[0, 1/2]]. The resulting pack
    runs through {!run_noisy_grid_words} unchanged — the blocked layout
    already carries one threshold row per schedule position, so
    per-gate variation only changes what the pack writes there: each
    noisy gate's row holds its own [lanes] thresholds and its own row
    maximum, keeping the early-out as tight as that gate allows. Lane
    [k] of a run is bit-identical to a per-point
    heterogeneous run at epsilons [eps.(k)] whenever no entry is
    exactly [1/2] (the grid kernel always consumes 64 shared draws per
    noisy gate, whereas the per-point pack consumes 1 at [1/2]).
    Raises [Invalid_argument] naming the offending lane and node
    otherwise. *)

val grid_lanes : grid_pack -> int

val empty_grid_pack : grid_pack
(** The zero-lane pack: {!run_noisy_grid_words} with it computes only
    the golden statistics while keeping stream accounting (64 draws per
    noisy gate per noise segment) intact — the frozen-lanes /
    all-epsilon-zero continuation path. *)

val run_noisy_grid_words :
  t ->
  grid:grid_pack ->
  rng:Nano_util.Prng.t ->
  input_probability:float ->
  words:int ->
  need0:bool ->
  golden_a:Bytes.t ->
  golden_b:Bytes.t ->
  na:Bytes.t array ->
  nb:Bytes.t array ->
  ones0:int array ->
  toggles0:int array ->
  ones:int array array ->
  toggles:int array array ->
  out_errors:int array array ->
  any:int array ->
  unit
(** The fused grid kernel: simulates [words] words with
    [grid_lanes grid] coupled noise replicas — ONE shared 64-uniform
    draw per noisy gate thinned against all lane thresholds
    ({!Nano_util.Prng.xor_noise_lanes_blocked}), the common-random-numbers
    coupling — plus the golden pair, whose statistics go to
    [ones0]/[toggles0] when [need0] (pass empty arrays otherwise).
    Per-lane counters land in
    [ones.(k)]/[toggles.(k)]/[out_errors.(k)]/[any.(k)]. All buffers
    are caller-owned blocked buffers; [na]/[nb] must carry one buffer
    per lane, and the loop allocates nothing. Draw consumption per word
    (64 per noisy gate per noise segment) is independent of the lane
    set, so dropping lanes between calls never shifts the stream, and
    every lane is bit-identical to a per-point {!run_noisy_words} run
    at that lane's epsilon when [epsilon <> 1/2]. *)
