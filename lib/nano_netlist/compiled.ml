(* Compiled structure-of-arrays form of a netlist.

   [Netlist.t] is pleasant to build and inspect but expensive to walk
   once per simulated word: every gate pays a closure dispatch through
   [Netlist.iter], an [Array.map] allocating a fresh fanin array, and a
   polymorphic-variant-style match inside [Gate.eval_word]. Lowering the
   DAG once into flat integer arrays — an opcode per schedule position,
   a CSR pair for fanins — turns the inner loop into index arithmetic
   over preallocated buffers, and widening each gate visit to a block of
   words amortizes that arithmetic further.

   Node values live in packed [Bytes.t] buffers (8 bytes per word,
   native endianness) rather than [int64 array]s, so the C evaluator
   reads and writes them in place and an OCaml caller stores a word
   without a heap box. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Opcode table. 2-input gates (the overwhelming majority after
   fanin-limited mapping) and 3-input majority get dedicated opcodes so
   the common cases are branch-predictable straight-line code; the [_n]
   fallbacks loop over the CSR slice. The C evaluator (prng_stubs.c)
   numbers them the same way; test_compiled pins the two tables to each
   other through [kernel_opcode]. *)
let op_input = 0
let op_const0 = 1
let op_const1 = 2
let op_buf = 3
let op_not = 4
let op_and2 = 5
let op_or2 = 6
let op_nand2 = 7
let op_nor2 = 8
let op_xor2 = 9
let op_xnor2 = 10
let op_maj3 = 11
let op_and_n = 12
let op_or_n = 13
let op_nand_n = 14
let op_nor_n = 15
let op_xor_n = 16
let op_xnor_n = 17
let op_maj_n = 18

let opcode_names =
  [| "input"; "const0"; "const1"; "buf"; "not"; "and2"; "or2"; "nand2";
     "nor2"; "xor2"; "xnor2"; "maj3"; "and_n"; "or_n"; "nand_n"; "nor_n";
     "xor_n"; "xnor_n"; "maj_n" |]

(* The program: the DAG re-sequenced by topological LEVEL (sources
   first, then every gate whose fanins are all in earlier levels), with
   node values living at the node's schedule POSITION rather than its
   id. Level order makes a gate's fanin reads land in the few most
   recently written levels — the cache-blocking that keeps the hot
   window resident however large the netlist — and the position-indexed
   layout turns the value stores of one pass into a single sequential
   stream. The C kernels read these arrays by field position (the PROG_*
   constants of prng_stubs.c), so the field order is fixed. *)
type prog = {
  ops : int array;  (** opcode per schedule position *)
  offs : int array;  (** CSR row starts into [fan], length n+1 *)
  fan : int array;  (** fanin SCHEDULE POSITIONS *)
  rank : int array;
      (** schedule position -> rank of the gate among noisy gates in
          ascending ID order (the canonical draw order), or -1 where the
          error channel injects no noise *)
  sid : int array;  (** schedule position -> node id *)
}

type t = {
  node_count : int;
  input_ids : int array;
  output_ids : int array;
  output_names : string array;
  noisy_count : int;
  prog : prog;
  slot_of : int array;  (** node id -> schedule position *)
  out_pos : int array;  (** schedule position of each primary output *)
  seg_starts : int array;
      (** level-aligned cache-segment boundaries over schedule positions;
          first entry 0, last entry [node_count] *)
}

external kernel_opcode : string -> int = "nano_kernel_opcode" [@@noalloc]
external kernel_block : unit -> int = "nano_kernel_block" [@@noalloc]

let node_count c = c.node_count
let input_ids c = c.input_ids
let output_ids c = c.output_ids
let output_names c = c.output_names
let noisy_count c = c.noisy_count

(* Value words interleaved per gate visit: 8 words = 512 effective
   vector lanes, amortizing dispatch while one level's blocked rows stay
   cache-resident. Every program shares it; the C evaluator defines it. *)
let block = kernel_block ()
let block_width _ = block
let default_block_width () = block

let is_noisy c id =
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.is_noisy: node id out of range";
  c.prog.rank.(c.slot_of.(id)) >= 0

let opcode c id =
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.opcode: node id out of range";
  opcode_names.(c.prog.ops.(c.slot_of.(id)))

(* ------------------------------------------------------------------ *)
(* Lowering.                                                            *)
(* ------------------------------------------------------------------ *)

(* Cache-segment sizing: segments are whole runs of levels whose
   estimated hot bytes — program slice, three blocked value rows, one
   threshold row per node — stay within an L2-sized budget, so the
   blocked executors' inner loops cycle over a resident working set
   even on multiplexed circuits far larger than the cache. *)
let seg_budget_bytes = 192 * 1024

let compile netlist =
  let n = Netlist.node_count netlist in
  let opcodes = Array.make n op_input in
  let fanin_offsets = Array.make (n + 1) 0 in
  let total = ref 0 in
  for id = 0 to n - 1 do
    total := !total + Array.length (Netlist.fanins netlist id)
  done;
  let fanin_ids = Array.make (max 1 !total) 0 in
  let noisy = Bytes.make n '\000' in
  let noisy_count = ref 0 in
  let pos = ref 0 in
  Netlist.iter netlist (fun id info ->
      fanin_offsets.(id) <- !pos;
      Array.iter
        (fun f ->
          fanin_ids.(!pos) <- f;
          incr pos)
        info.Netlist.fanins;
      let arity = Array.length info.Netlist.fanins in
      opcodes.(id) <-
        (match info.Netlist.kind with
        | Gate.Input -> op_input
        | Gate.Const false -> op_const0
        | Gate.Const true -> op_const1
        | Gate.Buf -> op_buf
        | Gate.Not -> op_not
        | Gate.And -> if arity = 2 then op_and2 else op_and_n
        | Gate.Or -> if arity = 2 then op_or2 else op_or_n
        | Gate.Nand -> if arity = 2 then op_nand2 else op_nand_n
        | Gate.Nor -> if arity = 2 then op_nor2 else op_nor_n
        | Gate.Xor -> if arity = 2 then op_xor2 else op_xor_n
        | Gate.Xnor -> if arity = 2 then op_xnor2 else op_xnor_n
        | Gate.Majority -> if arity = 3 then op_maj3 else op_maj_n);
      (* Noise is injected exactly at the logic gates, with sources and
         buffers error-free. *)
      if Gate.is_logic info.Netlist.kind then begin
        Bytes.set noisy id '\001';
        incr noisy_count
      end);
  fanin_offsets.(n) <- !pos;
  let input_ids = Array.copy (Netlist.input_ids netlist) in
  let output_ids = Array.copy (Netlist.output_ids netlist) in
  (* Level-ordered schedule: counting sort of ids by topological level,
     ids ascending within a level (stable and deterministic). *)
  let levels = Netlist.levels netlist in
  let depth = Array.fold_left max 0 levels in
  let level_count = Array.make (depth + 2) 0 in
  Array.iter (fun l -> level_count.(l) <- level_count.(l) + 1) levels;
  let level_start = Array.make (depth + 2) 0 in
  for l = 1 to depth + 1 do
    level_start.(l) <- level_start.(l - 1) + level_count.(l - 1)
  done;
  let sched_id = Array.make (max 1 n) 0 in
  let slot_of = Array.make (max 1 n) 0 in
  let fill = Array.copy level_start in
  for id = 0 to n - 1 do
    let l = levels.(id) in
    sched_id.(fill.(l)) <- id;
    slot_of.(id) <- fill.(l);
    fill.(l) <- fill.(l) + 1
  done;
  (* Re-sequenced program: same opcodes and CSR rows, fanins rewritten
     to schedule positions so the executors index value buffers
     directly. *)
  let sched_ops = Array.make (max 1 n) op_input in
  let sched_offs = Array.make (n + 1) 0 in
  let sched_fan = Array.make (max 1 !total) 0 in
  let sched_noise_rank = Array.make (max 1 n) (-1) in
  let spos = ref 0 in
  for p = 0 to n - 1 do
    let id = sched_id.(p) in
    sched_offs.(p) <- !spos;
    sched_ops.(p) <- opcodes.(id);
    for k = fanin_offsets.(id) to fanin_offsets.(id + 1) - 1 do
      sched_fan.(!spos) <- slot_of.(fanin_ids.(k));
      incr spos
    done
  done;
  sched_offs.(n) <- !spos;
  let rank = ref 0 in
  for id = 0 to n - 1 do
    if Bytes.get noisy id <> '\000' then begin
      sched_noise_rank.(slot_of.(id)) <- !rank;
      incr rank
    end
  done;
  (* Level-aligned cache segments under the byte budget. *)
  let seg_rev = ref [ 0 ] in
  let acc = ref 0 in
  for l = 0 to depth do
    let lvl_bytes = ref 0 in
    for p = level_start.(l) to level_start.(l + 1) - 1 do
      let fanins = sched_offs.(p + 1) - sched_offs.(p) in
      lvl_bytes := !lvl_bytes + 40 + (8 * fanins) + (24 * block)
    done;
    acc := !acc + !lvl_bytes;
    if !acc >= seg_budget_bytes && level_start.(l + 1) < n then begin
      seg_rev := level_start.(l + 1) :: !seg_rev;
      acc := 0
    end
  done;
  let seg_starts = Array.of_list (List.rev (n :: !seg_rev)) in
  {
    node_count = n;
    input_ids;
    output_ids;
    output_names = Array.copy (Netlist.output_names netlist);
    noisy_count = !noisy_count;
    prog =
      {
        ops = sched_ops;
        offs = sched_offs;
        fan = sched_fan;
        rank = sched_noise_rank;
        sid = sched_id;
      };
    slot_of;
    out_pos = Array.map (fun id -> slot_of.(id)) output_ids;
    seg_starts;
  }

(* Compiled programs are memoized per live netlist, keyed by physical
   identity. The ephemeron keeps the cache from pinning netlists
   (entries die with their key even though the compiled value is
   reachable from the table); the mutex makes concurrent lookups from
   worker domains safe — sharded Monte-Carlo runs compile once on the
   submitting domain, but nothing stops user code from racing two
   circuits. *)
module Cache = Ephemeron.K1.Make (struct
  type nonrec t = Netlist.t

  let equal = ( == )
  let hash n = Hashtbl.hash (Netlist.node_count n, Netlist.name n)
end)

let cache = Cache.create 32
let cache_mutex = Mutex.create ()

(* Process-lifetime memoization counters, surfaced by the evaluation
   service's [stats] request. Atomics rather than plain ints: reads may
   come from a different domain than the increments. *)
let memo_hit_count = Atomic.make 0
let memo_miss_count = Atomic.make 0

type memo_stats = { memo_hits : int; memo_misses : int }

let memo_stats () =
  { memo_hits = Atomic.get memo_hit_count;
    memo_misses = Atomic.get memo_miss_count }

let clear_cache () =
  Mutex.lock cache_mutex;
  Cache.clear cache;
  Mutex.unlock cache_mutex

let of_netlist netlist =
  Mutex.lock cache_mutex;
  match Cache.find_opt cache netlist with
  | Some c ->
    Atomic.incr memo_hit_count;
    Mutex.unlock cache_mutex;
    c
  | None ->
    Atomic.incr memo_miss_count;
    let c =
      match compile netlist with
      | c -> c
      | exception e ->
        Mutex.unlock cache_mutex;
        raise e
    in
    Cache.replace cache netlist c;
    Mutex.unlock cache_mutex;
    c

(* ------------------------------------------------------------------ *)
(* Blocked wide-word kernel.                                            *)
(* ------------------------------------------------------------------ *)

(* The blocked engine widens every gate visit to [block] words — 512
   effective vector lanes — so opcode dispatch, CSR fanin indexing and
   the call into the evaluator amortize across the block. Values live
   in a position-indexed blocked buffer: the word [j] of the node at
   schedule position [p] sits at byte [((p * block + j) lsl 3)].
   Indexing by LEVEL-ORDERED position rather than node id means one
   evaluation pass writes a single sequential stream and reads only the
   few most recently written levels, and the level-aligned [seg_starts]
   segments bound the working set each fused pass cycles over. *)

let[@inline] check_values_blocked c values name =
  if Bytes.length values <> (c.node_count * block) lsl 3 then
    invalid_arg
      (name
      ^ ": blocked values buffer length does not match node_count * block \
         (use Compiled.create_values_blocked)")

let[@inline] check_width width name =
  if width < 1 || width > block then
    invalid_arg (name ^ ": width must lie in [1, block_width]")

let create_values_blocked c =
  Bytes.make ((c.node_count * block) lsl 3) '\000'

let get_word_blocked c ~values ~id ~word =
  check_values_blocked c values "Compiled.get_word_blocked";
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.get_word_blocked: node id out of range";
  if word < 0 || word >= block then
    invalid_arg "Compiled.get_word_blocked: word index out of range";
  get64 values (((c.slot_of.(id) * block) + word) lsl 3)

let set_word_blocked c ~values ~id ~word w =
  check_values_blocked c values "Compiled.set_word_blocked";
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.set_word_blocked: node id out of range";
  if word < 0 || word >= block then
    invalid_arg "Compiled.set_word_blocked: word index out of range";
  set64 values (((c.slot_of.(id) * block) + word) lsl 3) w

let blit_values_blocked c ~values ~word ~into =
  check_values_blocked c values "Compiled.blit_values_blocked";
  if Array.length into <> c.node_count then
    invalid_arg "Compiled.blit_values_blocked: wrong destination length";
  if word < 0 || word >= block then
    invalid_arg "Compiled.blit_values_blocked: word index out of range";
  let sid = c.prog.sid in
  for p = 0 to c.node_count - 1 do
    Array.unsafe_set into
      (Array.unsafe_get sid p)
      (get64u values (((p * block) + word) lsl 3))
  done

let copy_input_words_blocked c ~src ~dst =
  check_values_blocked c src "Compiled.copy_input_words_blocked";
  check_values_blocked c dst "Compiled.copy_input_words_blocked";
  let slot = c.slot_of in
  let ids = c.input_ids in
  for i = 0 to Array.length ids - 1 do
    let b = (Array.unsafe_get slot (Array.unsafe_get ids i) * block) lsl 3 in
    Bytes.blit src b dst b (block lsl 3)
  done

let draw_input_words_blocked c rng ~offset ~stride ~width ~input_probability
    ~values =
  check_values_blocked c values "Compiled.draw_input_words_blocked";
  check_width width "Compiled.draw_input_words_blocked";
  let ids = c.input_ids and slot = c.slot_of in
  let ipw = Nano_util.Prng.draws_per_word ~p:input_probability in
  (* Input [i]'s word [j] owns draws [offset + i*ipw + j*stride ..]: one
     density word per input in declaration order within each word's
     segment, transposed onto the block by the positioned primitive. *)
  for i = 0 to Array.length ids - 1 do
    Nano_util.Prng.store_words_with_density_at rng
      ~offset:(offset + (i * ipw)) ~stride ~width ~p:input_probability values
      ~pos:((Array.unsafe_get slot (Array.unsafe_get ids i) * block) lsl 3)
      ~pos_stride:8
  done

(* The evaluator and the counters are C (prng_stubs.c, the unit that
   owns the noise kernels, so the grid pass calls those directly): one
   opcode interpreter over blocked buffers with [Gate.eval_word]'s
   semantics per position, popcount on the hardware instruction where
   the CPU has it, and the grid pass of one replica over one segment.
   The stubs trust their arguments; the wrappers check them. *)
external kernel_exec : prog -> int -> int -> int -> Bytes.t -> Bytes.t -> unit
  = "nano_kernel_exec_bytes" "nano_kernel_exec"
[@@noalloc]

external kernel_counts :
  prog ->
  int ->
  int ->
  int ->
  Bytes.t ->
  Bytes.t ->
  int array ->
  int array ->
  unit = "nano_kernel_counts_bytes" "nano_kernel_counts"
[@@noalloc]

external kernel_grid_pass :
  prog ->
  int ->
  int ->
  int ->
  Bytes.t ->
  int ->
  int ->
  Bytes.t ->
  int ->
  Bytes.t ->
  Bytes.t array ->
  Bytes.t array ->
  int array array ->
  int array array ->
  unit = "nano_kernel_grid_pass_bytes" "nano_kernel_grid_pass"
[@@noalloc]

external kernel_out_errors :
  int array ->
  int ->
  Bytes.t ->
  Bytes.t array ->
  int array array ->
  int array ->
  unit = "nano_kernel_out_errors_bytes" "nano_kernel_out_errors"
[@@noalloc]

let exec_words_blocked c ~width ~values =
  check_values_blocked c values "Compiled.exec_words_blocked";
  check_width width "Compiled.exec_words_blocked";
  kernel_exec c.prog 0 c.node_count width values values

let exec_step_blocked c ~width ~src ~dst =
  check_values_blocked c src "Compiled.exec_step_blocked";
  check_values_blocked c dst "Compiled.exec_step_blocked";
  check_width width "Compiled.exec_step_blocked";
  if src == dst then
    invalid_arg "Compiled.exec_step_blocked: src and dst must be distinct";
  kernel_exec c.prog 0 c.node_count width src dst

let add_ones_counts_blocked c ~width ~values ~into =
  check_values_blocked c values "Compiled.add_ones_counts_blocked";
  check_width width "Compiled.add_ones_counts_blocked";
  if Array.length into <> c.node_count then
    invalid_arg "Compiled.add_ones_counts_blocked: wrong counter length";
  if c.node_count > 0 then
    kernel_counts c.prog 0 c.node_count width values values into [||]

let add_toggle_counts_blocked c ~width ~a ~b ~into =
  check_values_blocked c a "Compiled.add_toggle_counts_blocked";
  check_values_blocked c b "Compiled.add_toggle_counts_blocked";
  check_width width "Compiled.add_toggle_counts_blocked";
  if Array.length into <> c.node_count then
    invalid_arg "Compiled.add_toggle_counts_blocked: wrong counter length";
  if c.node_count > 0 then
    kernel_counts c.prog 0 c.node_count width a b [||] into

(* ------------------------------------------------------------------ *)
(* Fused noisy sweeps.                                                  *)
(* ------------------------------------------------------------------ *)

(* Grid pack: one row of [lanes + 1] integer thresholds per noisy
   schedule position — word 0 the row maximum (the lanes primitive's
   early-out, as tight as that gate's lanes allow), words 1..lanes the
   per-lane values. The execution loop reads the row at [p * stride],
   so epsilon varies per gate as well as per lane at no run-time cost;
   a gate-uniform lane is a row of one repeated value. Every noisy gate
   consumes exactly 64 shared draws whatever its thresholds and
   whatever the lane set, so the lane set never shifts the stream. *)
type grid_pack = {
  gp_thr : Bytes.t;
  gp_lanes : int;
  gp_nodes : int;
}

let grid_lanes g = g.gp_lanes
let empty_grid_pack = { gp_thr = Bytes.empty; gp_lanes = 0; gp_nodes = 0 }

let pack_grid_heterogeneous c eps =
  let lanes = Array.length eps in
  if lanes < 1 then
    invalid_arg "Compiled.pack_grid_heterogeneous: need at least one lane";
  let n = c.node_count in
  Array.iteri
    (fun k row ->
      if Array.length row <> n then
        invalid_arg
          (Printf.sprintf
             "Compiled.pack_grid_heterogeneous: lane %d: expected %d epsilons \
              (one per node), got %d"
             k n (Array.length row));
      Array.iteri
        (fun id e ->
          if not (e >= 0. && e <= 0.5) then
            invalid_arg
              (Printf.sprintf
                 "Compiled.pack_grid_heterogeneous: lane %d, node %d: epsilon \
                  %g must lie in [0, 1/2]"
                 k id e))
        row)
    eps;
  let stride = (lanes + 1) lsl 3 in
  let thr = Bytes.make (max 8 (n * stride)) '\000' in
  for id = 0 to n - 1 do
    let p = c.slot_of.(id) in
    if c.prog.rank.(p) >= 0 then begin
      let base = p * stride in
      let tmax = ref 0L in
      for k = 0 to lanes - 1 do
        let t = Nano_util.Prng.threshold_bits ~p:eps.(k).(id) in
        set64 thr (base + ((k + 1) lsl 3)) t;
        if Int64.compare t !tmax > 0 then tmax := t
      done;
      set64 thr base !tmax
    end
  done;
  { gp_thr = thr; gp_lanes = lanes; gp_nodes = n }

(* The fused grid sweep, the one noisy Monte-Carlo kernel: one pass
   over the levelized program per block of [block] words computes the
   golden pair, every lane's two noisy replicas (noise injected from
   positioned draws as each gate settles) and the counters, segment by
   segment, so each cache segment's value rows are touched while still
   resident. Lane replicas advance gate by gate within each segment —
   every lane's clean value must exist before the ONE shared 64-uniform
   draw per noisy gate is thinned against all lane thresholds (the
   common-random-numbers coupling). The per-word stream layout —
   inputs_a, noise_a (64 draws per noisy gate in ascending node-id
   order), inputs_b, noise_b — is exactly the order a sequential
   word-by-word walk draws in (Noisy_sim's interpretive engine); word
   [j] of a block owns draw interval [j*dpw, (j+1)*dpw), every
   primitive addresses its segment positionally without mutating the
   generator, and one jump per block advances it, so results are
   bit-identical to that walk at any ragged tail and any sharding. With
   [grid = empty_grid_pack] only the golden statistics are computed,
   yet the jump accounting still covers the noise segments. Each
   segment is one C pass per replica ([kernel_grid_pass]): evaluation,
   noise and, in the second replica's pass, the lane counters, with no
   return to OCaml between positions. *)
let run_noisy_grid_words c ~grid ~rng ~input_probability ~words ~need0
    ~golden_a ~golden_b ~na ~nb ~ones0 ~toggles0 ~ones ~toggles ~out_errors
    ~any =
  let lanes = grid.gp_lanes in
  check_values_blocked c golden_a "Compiled.run_noisy_grid_words";
  check_values_blocked c golden_b "Compiled.run_noisy_grid_words";
  if lanes > 0 && grid.gp_nodes <> c.node_count then
    invalid_arg
      "Compiled.run_noisy_grid_words: grid pack does not match program (use \
       Compiled.pack_grid_heterogeneous)";
  if Array.length na <> lanes || Array.length nb <> lanes then
    invalid_arg
      "Compiled.run_noisy_grid_words: one value buffer per lane required";
  for k = 0 to lanes - 1 do
    check_values_blocked c na.(k) "Compiled.run_noisy_grid_words";
    check_values_blocked c nb.(k) "Compiled.run_noisy_grid_words"
  done;
  if words < 0 then
    invalid_arg "Compiled.run_noisy_grid_words: words must be >= 0";
  if
    need0
    && (Array.length ones0 <> c.node_count
       || Array.length toggles0 <> c.node_count)
  then invalid_arg "Compiled.run_noisy_grid_words: wrong golden counter length";
  let n_out = Array.length c.output_ids in
  if
    Array.length ones <> lanes
    || Array.length toggles <> lanes
    || Array.length out_errors <> lanes
    || Array.length any <> lanes
  then
    invalid_arg
      "Compiled.run_noisy_grid_words: one counter set per lane required";
  for k = 0 to lanes - 1 do
    if
      Array.length ones.(k) <> c.node_count
      || Array.length toggles.(k) <> c.node_count
    then invalid_arg "Compiled.run_noisy_grid_words: wrong lane counter length";
    if Array.length out_errors.(k) <> n_out then
      invalid_arg
        "Compiled.run_noisy_grid_words: wrong lane output counter length"
  done;
  let prog = c.prog and state = Nano_util.Prng.state_buffer rng in
  let thr = grid.gp_thr in
  let segs = c.seg_starts in
  let nseg = Array.length segs - 1 in
  let ipw = Nano_util.Prng.draws_per_word ~p:input_probability in
  let in_draws = Array.length c.input_ids * ipw in
  let noise_draws = 64 * c.noisy_count in
  let half = in_draws + noise_draws in
  let dpw = 2 * half in
  let done_words = ref 0 in
  while !done_words < words do
    let bw = min block (words - !done_words) in
    draw_input_words_blocked c rng ~offset:0 ~stride:dpw ~width:bw
      ~input_probability ~values:golden_a;
    draw_input_words_blocked c rng ~offset:half ~stride:dpw ~width:bw
      ~input_probability ~values:golden_b;
    for s = 0 to nseg - 1 do
      let lo = Array.unsafe_get segs s
      and hi = Array.unsafe_get segs (s + 1) in
      kernel_exec prog lo hi bw golden_a golden_a;
      if need0 then begin
        kernel_exec prog lo hi bw golden_b golden_b;
        kernel_counts prog lo hi bw golden_a golden_b ones0 toggles0
      end;
      if lanes > 0 then begin
        (* Replica a, then replica b, which counts against a's rows. *)
        kernel_grid_pass prog lo hi bw state in_draws dpw thr lanes golden_a
          na [||] [||] [||];
        kernel_grid_pass prog lo hi bw state (half + in_draws) dpw thr lanes
          golden_b nb na ones toggles
      end
    done;
    if lanes > 0 then kernel_out_errors c.out_pos bw golden_a na out_errors any;
    Nano_util.Prng.jump rng ~draws:(bw * dpw);
    done_words := !done_words + bw
  done
