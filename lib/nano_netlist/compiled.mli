(** Compiled netlists: a flat structure-of-arrays program for the
    Monte-Carlo hot paths.

    {!of_netlist} lowers a {!Netlist.t} once into a level-ordered opcode
    array, a CSR fanin encoding and packed source/output/noise tables;
    the [exec_*_blocked] entry points and {!run_noisy_grid_words} then
    evaluate blocks of 64-vector words in C (one opcode interpreter in
    [nano_util]'s stubs, beside the noise kernels), with no per-gate
    allocation and no dispatch through closures. Results are
    bit-identical to the interpretive walk over [Netlist.iter] /
    [Gate.eval_word] — the compiled form only changes how the same
    arithmetic is reached.

    Node values live in packed blocked byte buffers
    ({!create_values_blocked}). Buffers are plain [Bytes.t] so callers
    can keep several (golden, noisy, previous-cycle, ...) and reuse them
    across blocks; none of the functions here allocate on the per-word
    path. *)

type t

(** {1 Lowering} *)

val of_netlist : Netlist.t -> t
(** Compiled form of the netlist, memoized per physical [Netlist.t]
    (weak ephemeron cache keyed on the netlist, safe to call from any
    domain): repeated calls for the same netlist return the same
    compiled program without re-lowering. *)

val compile : Netlist.t -> t
(** Always lowers afresh, bypassing the memo table. Prefer
    {!of_netlist}. *)

val default_block_width : unit -> int
(** The blocked engine's words per gate visit: 8 words (512 effective
    lanes), the same for every program. *)

val block_width : t -> int
(** The width this program runs at, {!default_block_width}. *)

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
(** Number of nodes at which {!run_noisy_grid_words} injects noise (the
    logic gates — sources and buffers are error-free, matching
    [Noisy_sim]). *)

val is_noisy : t -> int -> bool

val opcode : t -> int -> string
(** Human-readable opcode of a node (["and2"], ["xor_n"], ...); for
    debugging and tests. *)

val opcode_names : string array
(** Every opcode's name, indexed by its number in the program. *)

val kernel_opcode : string -> int
(** The C evaluator's number for an opcode name, [-1] for a name it does
    not know. The two sides define their tables separately; tests pin
    [kernel_opcode opcode_names.(i) = i] for every opcode. *)

(** {1 Blocked wide-word engine}

    The high-throughput engine: every gate visit processes a block of
    [block_width] words (512 effective vector lanes), amortizing opcode
    dispatch and fanin indexing, and the noisy Monte-Carlo passes fuse
    evaluation, noise injection and counter accumulation into ONE sweep
    over a LEVEL-ordered re-sequencing of the program, walked in
    level-aligned cache segments.

    Blocked buffers are indexed by schedule POSITION, not node id: word
    [j] of the node at position [p] lives at byte [8 * (p*block + j)].
    Use {!get_word_blocked}/{!set_word_blocked}/{!blit_values_blocked}
    for id-addressed access.

    Bit-identity: the blocked engine consumes the canonical PRNG stream
    POSITIONALLY — each gate's draws sit at fixed offsets derived from
    the ascending-node-id layout (inputs_a, noise_a, inputs_b, noise_b
    per word, 64 noise draws per logic gate), primitives synthesize generator states in O(1) without
    mutating the generator, and one jump per block advances it — so
    counters are bit-identical to a sequential word-by-word walk of
    that stream (the interpretive [Noisy_sim] engine) at any ragged
    tail and any shard count. *)

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
    position is overwritten, and words past [width] are left as they
    are. Column [j] is identical to [Gate.eval_word] over
    [Netlist.iter] on the inputs' words [j]. One call into the C
    evaluator, the one {!run_noisy_grid_words} runs. *)

val exec_step_blocked : t -> width:int -> src:Bytes.t -> dst:Bytes.t -> unit
(** One synchronous unit-delay step over [width] words: every gate
    reads its fanins' values from [src] and writes to [dst]; input
    positions copy through. [src] and [dst] must be distinct blocked
    buffers. The same C evaluator as {!exec_words_blocked}. *)

(** {2 Counters}

    Counter updates in C, with the hardware popcount where the CPU has
    one (chosen once at load, a portable fallback otherwise). All add
    into the caller's id-indexed accumulators and allocate nothing. *)

val add_ones_counts_blocked :
  t -> width:int -> values:Bytes.t -> into:int array -> unit
(** Add each node's population count over the first [width] words to
    [into.(id)] ([node_count] entries). *)

val add_toggle_counts_blocked :
  t -> width:int -> a:Bytes.t -> b:Bytes.t -> into:int array -> unit
(** Add [popcount (a lxor b)] of each node's first [width] words to
    [into.(id)]. *)

(** {2 Fused noisy sweep} *)

type grid_pack
(** A lane grid lowered for the fused multi-epsilon sweep: one row of
    [lanes + 1] integer thresholds per noisy schedule position, word 0
    the row maximum: a noise word none of whose 64 uniforms falls below
    it flips nothing in any lane and is skipped. *)

val pack_grid_heterogeneous : t -> float array array -> grid_pack
(** [pack_grid_heterogeneous c eps] with [eps.(k).(id)] lane [k]'s
    epsilon at node [id] ([lanes] rows of [node_count c] entries,
    non-noisy nodes ignored), each in [[0, 1/2]], for
    {!run_noisy_grid_words}. Each noisy gate's row holds its own
    [lanes] thresholds and its own row maximum, keeping the early-out
    as tight as that gate allows; a gate-uniform lane is a row of one
    repeated epsilon. Lane [k] of a run is bit-identical to a one-lane
    run at [eps.(k)], whatever the other lanes are. Raises
    [Invalid_argument] naming the offending lane and node otherwise. *)

val grid_lanes : grid_pack -> int

val empty_grid_pack : grid_pack
(** The zero-lane pack: {!run_noisy_grid_words} with it computes only
    the golden statistics while keeping stream accounting (64 draws per
    noisy gate per noise segment) intact — the path of a run whose
    every lane is noise-free. *)

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
(** The fused Monte-Carlo kernel, the one every compiled noisy
    simulation runs through (a single-point run is a one-lane grid):
    simulates [words] words with [grid_lanes grid] coupled noise
    replicas — ONE shared 64-uniform draw per noisy gate thinned
    against all lane thresholds (the lanes kernel that tests reach as
    {!Nano_util.Prng.For_testing.xor_noise_lanes_blocked}), the
    common-random-numbers coupling: the uniforms are computed once per
    word for every lane, and each lane's 64-bit flip mask is built from
    them in vector registers and XORed in once — plus the golden pair,
    whose statistics go to [ones0]/[toggles0] when [need0] (pass empty
    arrays otherwise).

    OCaml draws each block's stimulus, walks the cache segments and
    jumps the generator once per block; each segment is then one C
    pass per replica. At every schedule position the pass evaluates
    each lane's words (an input row is the golden replica's), XORs in
    the position's lane flip masks, and the second replica's pass takes
    the counters with hardware popcount, all without returning to
    OCaml. A one-lane grid runs the single-threshold mask kernel at
    the smaller of word 0 and the lane's threshold, as the lanes kernel's
    stub entry does at one lane.
    Lane [k]'s first replica runs on the golden stimulus and its second
    on fresh stimulus; its counters land in [ones.(k)] and
    [toggles.(k)] (per node), [out_errors.(k)] (per output) and
    [any.(k)] (vectors with any output wrong). All buffers are
    caller-owned blocked buffers; [na]/[nb] must carry one buffer per
    lane, and the loop allocates nothing. Each word consumes
    [2 * (inputs * Prng.draws_per_word ~p:input_probability + 64 *
    noisy_count)] draws — 64 per noisy gate per noise segment, whatever
    the epsilons and the lane set — so every lane is bit-identical to a
    one-lane run at that lane's epsilon. *)
