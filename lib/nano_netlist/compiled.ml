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
   native endianness) rather than [int64 array]s: storing a computed
   [int64] into an ordinary array forces a heap box per store under
   classic (non-flambda) ocamlopt, whereas the raw load/store primitives
   below combine with the compiler's unboxed-let optimization to keep
   the fused simulation loops allocation-free. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Opcode table. 2-input gates (the overwhelming majority after
   fanin-limited mapping) and 3-input majority get dedicated opcodes so
   the common cases are branch-predictable straight-line code; the [_n]
   fallbacks loop over the CSR slice. *)
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

type t = {
  node_count : int;
  input_ids : int array;
  output_ids : int array;
  output_names : string array;
  noisy_count : int;
  (* The program: the DAG re-sequenced by topological LEVEL (sources
     first, then every gate whose fanins are all in earlier levels), with
     node values living at the node's schedule POSITION rather than its
     id. Level order makes a gate's fanin reads land in the few most
     recently written levels — the cache-blocking that keeps the hot
     window resident however large the netlist — and the
     position-indexed layout turns the value stores of one pass into a
     single sequential stream. *)
  block : int;  (** value words interleaved per gate visit (>= 1) *)
  sched_id : int array;  (** schedule position -> node id *)
  slot_of : int array;  (** node id -> schedule position *)
  sched_ops : int array;  (** opcode per schedule position *)
  sched_offs : int array;  (** CSR row starts into [sched_fan], length n+1 *)
  sched_fan : int array;  (** fanin SCHEDULE POSITIONS *)
  sched_noisy : Bytes.t;
      (** ['\001'] at the schedule positions where the error channel
          injects noise *)
  sched_noise_rank : int array;
      (** schedule position -> rank of the gate among noisy gates in
          ascending ID order (the canonical draw order), or -1 *)
  seg_starts : int array;
      (** level-aligned cache-segment boundaries over schedule positions;
          first entry 0, last entry [node_count] *)
}

let node_count c = c.node_count
let input_ids c = c.input_ids
let output_ids c = c.output_ids
let output_names c = c.output_names
let noisy_count c = c.noisy_count
let block_width c = c.block

(* Default block width: 8 words = 512 effective vector lanes per gate
   visit. Overridable through the environment for experiments and for
   callers that cannot thread an explicit [?block] argument (the
   evaluation service daemon). *)
let default_block_width =
  let v =
    lazy
      (match Sys.getenv_opt "NANOBOUND_BLOCK_WIDTH" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some b when b >= 1 && b <= 16 -> b
        | _ -> 8)
      | None -> 8)
  in
  fun () -> Lazy.force v

let is_noisy c id =
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.is_noisy: node id out of range";
  Bytes.get c.sched_noisy c.slot_of.(id) <> '\000'

let opcode_name = function
  | 0 -> "input"
  | 1 -> "const0"
  | 2 -> "const1"
  | 3 -> "buf"
  | 4 -> "not"
  | 5 -> "and2"
  | 6 -> "or2"
  | 7 -> "nand2"
  | 8 -> "nor2"
  | 9 -> "xor2"
  | 10 -> "xnor2"
  | 11 -> "maj3"
  | 12 -> "and_n"
  | 13 -> "or_n"
  | 14 -> "nand_n"
  | 15 -> "nor_n"
  | 16 -> "xor_n"
  | 17 -> "xnor_n"
  | 18 -> "maj_n"
  | _ -> "?"

let opcode c id =
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.opcode: node id out of range";
  opcode_name c.sched_ops.(c.slot_of.(id))

(* ------------------------------------------------------------------ *)
(* Lowering.                                                            *)
(* ------------------------------------------------------------------ *)

(* Cache-segment sizing: segments are whole runs of levels whose
   estimated hot bytes — program slice, three blocked value rows, one
   threshold row per node — stay within an L2-sized budget, so the
   blocked executors' inner loops cycle over a resident working set
   even on multiplexed circuits far larger than the cache. *)
let seg_budget_bytes = 192 * 1024

let compile ?block netlist =
  let block =
    match block with None -> default_block_width () | Some b -> b
  in
  if block < 1 || block > 16 then
    invalid_arg "Compiled.compile: block width must lie in [1, 16]";
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
      (* Noise is injected exactly at the gates [Noisy_sim] counts as
         noisy: logic gates, with sources and buffers error-free. *)
      match info.Netlist.kind with
      | Gate.Input | Gate.Const _ | Gate.Buf -> ()
      | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
      | Gate.Xnor | Gate.Majority ->
        Bytes.set noisy id '\001';
        incr noisy_count);
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
  let sched_noisy = Bytes.make (max 1 n) '\000' in
  let sched_noise_rank = Array.make (max 1 n) (-1) in
  let spos = ref 0 in
  for p = 0 to n - 1 do
    let id = sched_id.(p) in
    sched_offs.(p) <- !spos;
    sched_ops.(p) <- opcodes.(id);
    for k = fanin_offsets.(id) to fanin_offsets.(id + 1) - 1 do
      sched_fan.(!spos) <- slot_of.(fanin_ids.(k));
      incr spos
    done;
    Bytes.set sched_noisy p (Bytes.get noisy id)
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
    block;
    sched_id;
    slot_of;
    sched_ops;
    sched_offs;
    sched_fan;
    sched_noisy;
    sched_noise_rank;
    seg_starts;
  }

(* Compiled programs are memoized per live netlist, keyed by physical
   identity, with an association list of block widths per netlist so
   mixed-width callers (a service daemon answering both blocked
   Monte-Carlo requests and width-1 debugging probes, say) neither
   recompile on every call nor silently hand each other the wrong
   layout. The ephemeron keeps the cache from pinning netlists (entries
   die with their key even though the compiled value is reachable from
   the table); the mutex makes concurrent lookups from worker domains
   safe — sharded Monte-Carlo runs compile once on the submitting
   domain, but nothing stops user code from racing two circuits. *)
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
let width_registry = ref []

type memo_stats = { memo_hits : int; memo_misses : int }

let memo_stats () =
  { memo_hits = Atomic.get memo_hit_count;
    memo_misses = Atomic.get memo_miss_count }

let clear_cache () =
  Mutex.lock cache_mutex;
  Cache.clear cache;
  Mutex.unlock cache_mutex

let of_netlist ?block netlist =
  let block =
    match block with None -> default_block_width () | Some b -> b
  in
  Mutex.lock cache_mutex;
  let entries =
    match Cache.find_opt cache netlist with Some l -> l | None -> []
  in
  match List.assoc_opt block entries with
  | Some c ->
    Atomic.incr memo_hit_count;
    Mutex.unlock cache_mutex;
    c
  | None ->
    Atomic.incr memo_miss_count;
    let c =
      match compile ~block netlist with
      | c -> c
      | exception e ->
        Mutex.unlock cache_mutex;
        raise e
    in
    Cache.replace cache netlist ((block, c) :: entries);
    if not (List.mem block !width_registry) then
      width_registry := List.sort_uniq compare (block :: !width_registry);
    Mutex.unlock cache_mutex;
    c

(* Sorted deduplicated widths this process has compiled for, reported by
   the service's [stats] request under [compiled_programs] so operators
   can see which layouts a warm daemon holds. A side registry rather
   than a walk of the ephemeron table: the table intentionally exposes
   no enumeration (entries die with their keys), and process-lifetime
   accounting matches the hit/miss counters above. *)
let cached_block_widths () =
  Mutex.lock cache_mutex;
  let ws = !width_registry in
  Mutex.unlock cache_mutex;
  ws

(* ------------------------------------------------------------------ *)
(* Counting kernels.                                                    *)
(* ------------------------------------------------------------------ *)

(* Private copy of [Nano_util.Bits.popcount64]: dev-profile builds pass
   [-opaque], which disables cross-library inlining, so calling the
   shared one from the per-word counter loops would box every word at
   the call boundary. Keeping the kernel in this compilation unit is
   what makes the loops allocation-free. *)
let[@inline] popcount64 w =
  let open Int64 in
  let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    add (logand w 0x3333333333333333L)
      (logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

(* ------------------------------------------------------------------ *)
(* Blocked wide-word kernel.                                            *)
(* ------------------------------------------------------------------ *)

(* The blocked engine widens every gate visit to [block] words — 256/512
   effective vector lanes at the default widths — so opcode dispatch,
   CSR fanin indexing and the call into the evaluator amortize across
   the block. Values live in a position-indexed blocked buffer: the word
   [j] of the node at schedule position [p] sits at byte
   [((p * block + j) lsl 3)]. Indexing by LEVEL-ORDERED position rather
   than node id means one evaluation pass writes a single sequential
   stream and reads only the few most recently written levels, and the
   level-aligned [seg_starts] segments bound the working set each fused
   pass cycles over. *)

let[@inline] check_values_blocked c values name =
  if Bytes.length values <> (c.node_count * c.block) lsl 3 then
    invalid_arg
      (name
      ^ ": blocked values buffer length does not match node_count * block \
         (use Compiled.create_values_blocked)")

let[@inline] check_width c width name =
  if width < 1 || width > c.block then
    invalid_arg (name ^ ": width must lie in [1, block_width]")

let create_values_blocked c =
  Bytes.make ((c.node_count * c.block) lsl 3) '\000'

let get_word_blocked c ~values ~id ~word =
  check_values_blocked c values "Compiled.get_word_blocked";
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.get_word_blocked: node id out of range";
  if word < 0 || word >= c.block then
    invalid_arg "Compiled.get_word_blocked: word index out of range";
  get64 values (((c.slot_of.(id) * c.block) + word) lsl 3)

let set_word_blocked c ~values ~id ~word w =
  check_values_blocked c values "Compiled.set_word_blocked";
  if id < 0 || id >= c.node_count then
    invalid_arg "Compiled.set_word_blocked: node id out of range";
  if word < 0 || word >= c.block then
    invalid_arg "Compiled.set_word_blocked: word index out of range";
  set64 values (((c.slot_of.(id) * c.block) + word) lsl 3) w

let blit_values_blocked c ~values ~word ~into =
  check_values_blocked c values "Compiled.blit_values_blocked";
  if Array.length into <> c.node_count then
    invalid_arg "Compiled.blit_values_blocked: wrong destination length";
  if word < 0 || word >= c.block then
    invalid_arg "Compiled.blit_values_blocked: word index out of range";
  let block = c.block and sid = c.sched_id in
  for p = 0 to c.node_count - 1 do
    Array.unsafe_set into
      (Array.unsafe_get sid p)
      (get64u values (((p * block) + word) lsl 3))
  done

let copy_input_words_blocked c ~src ~dst =
  check_values_blocked c src "Compiled.copy_input_words_blocked";
  check_values_blocked c dst "Compiled.copy_input_words_blocked";
  let block = c.block and slot = c.slot_of in
  let ids = c.input_ids in
  for i = 0 to Array.length ids - 1 do
    let b = (Array.unsafe_get slot (Array.unsafe_get ids i) * block) lsl 3 in
    Bytes.blit src b dst b (block lsl 3)
  done

let draw_input_words_blocked c rng ~offset ~stride ~width ~input_probability
    ~values =
  check_values_blocked c values "Compiled.draw_input_words_blocked";
  check_width c width "Compiled.draw_input_words_blocked";
  let ids = c.input_ids and slot = c.slot_of and block = c.block in
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

(* Evaluate the node at schedule position [p] over [width] words,
   reading fanin words from [src] and writing to [dst]. The fast paths
   are 2-way unrolled: two independent word computations per iteration
   give the out-of-order core two dependency chains to overlap, and the
   loop overhead halves. Not inlined — the call is paid once per
   [width] words, which is exactly the amortization the blocked layout
   exists to buy. *)
let eval_pos_blocked ops offs fan ~block ~width ~src ~dst p =
  let d = (p * block) lsl 3 in
  match Array.unsafe_get ops p with
  | 0 (* input *) ->
    if src != dst then Bytes.blit src d dst d (width lsl 3)
  | 1 (* const0 *) ->
    for j = 0 to width - 1 do
      set64u dst (d + (j lsl 3)) 0L
    done
  | 2 (* const1 *) ->
    for j = 0 to width - 1 do
      set64u dst (d + (j lsl 3)) (-1L)
    done
  | 3 (* buf *) ->
    let a = (Array.unsafe_get fan (Array.unsafe_get offs p) * block) lsl 3 in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      set64u dst (d + q) (get64u src (a + q))
    done
  | 4 (* not *) ->
    let a = (Array.unsafe_get fan (Array.unsafe_get offs p) * block) lsl 3 in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      set64u dst (d + q) (Int64.lognot (get64u src (a + q)))
    done
  | 5 (* and2 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      set64u dst (d + q)
        (Int64.logand (get64u src (a + q)) (get64u src (b + q)));
      set64u dst (d + q + 8)
        (Int64.logand (get64u src (a + q + 8)) (get64u src (b + q + 8)))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      set64u dst (d + q)
        (Int64.logand (get64u src (a + q)) (get64u src (b + q)))
    end
  | 6 (* or2 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      set64u dst (d + q)
        (Int64.logor (get64u src (a + q)) (get64u src (b + q)));
      set64u dst (d + q + 8)
        (Int64.logor (get64u src (a + q + 8)) (get64u src (b + q + 8)))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      set64u dst (d + q)
        (Int64.logor (get64u src (a + q)) (get64u src (b + q)))
    end
  | 7 (* nand2 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      set64u dst (d + q)
        (Int64.lognot
           (Int64.logand (get64u src (a + q)) (get64u src (b + q))));
      set64u dst (d + q + 8)
        (Int64.lognot
           (Int64.logand (get64u src (a + q + 8)) (get64u src (b + q + 8))))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      set64u dst (d + q)
        (Int64.lognot (Int64.logand (get64u src (a + q)) (get64u src (b + q))))
    end
  | 8 (* nor2 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      set64u dst (d + q)
        (Int64.lognot (Int64.logor (get64u src (a + q)) (get64u src (b + q))));
      set64u dst (d + q + 8)
        (Int64.lognot
           (Int64.logor (get64u src (a + q + 8)) (get64u src (b + q + 8))))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      set64u dst (d + q)
        (Int64.lognot (Int64.logor (get64u src (a + q)) (get64u src (b + q))))
    end
  | 9 (* xor2 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      set64u dst (d + q)
        (Int64.logxor (get64u src (a + q)) (get64u src (b + q)));
      set64u dst (d + q + 8)
        (Int64.logxor (get64u src (a + q + 8)) (get64u src (b + q + 8)))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      set64u dst (d + q)
        (Int64.logxor (get64u src (a + q)) (get64u src (b + q)))
    end
  | 10 (* xnor2 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      set64u dst (d + q)
        (Int64.lognot
           (Int64.logxor (get64u src (a + q)) (get64u src (b + q))));
      set64u dst (d + q + 8)
        (Int64.lognot
           (Int64.logxor (get64u src (a + q + 8)) (get64u src (b + q + 8))))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      set64u dst (d + q)
        (Int64.lognot (Int64.logxor (get64u src (a + q)) (get64u src (b + q))))
    end
  | 11 (* maj3 *) ->
    let o = Array.unsafe_get offs p in
    let a = (Array.unsafe_get fan o * block) lsl 3 in
    let b = (Array.unsafe_get fan (o + 1) * block) lsl 3 in
    let cc = (Array.unsafe_get fan (o + 2) * block) lsl 3 in
    for h = 0 to (width lsr 1) - 1 do
      let q = h lsl 4 in
      let x = get64u src (a + q)
      and y = get64u src (b + q)
      and z = get64u src (cc + q) in
      set64u dst (d + q)
        (Int64.logor (Int64.logand x y)
           (Int64.logor (Int64.logand x z) (Int64.logand y z)));
      let x = get64u src (a + q + 8)
      and y = get64u src (b + q + 8)
      and z = get64u src (cc + q + 8) in
      set64u dst (d + q + 8)
        (Int64.logor (Int64.logand x y)
           (Int64.logor (Int64.logand x z) (Int64.logand y z)))
    done;
    if width land 1 <> 0 then begin
      let q = (width - 1) lsl 3 in
      let x = get64u src (a + q)
      and y = get64u src (b + q)
      and z = get64u src (cc + q) in
      set64u dst (d + q)
        (Int64.logor (Int64.logand x y)
           (Int64.logor (Int64.logand x z) (Int64.logand y z)))
    end
  | 12 (* and_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let acc =
        ref (get64u src (((Array.unsafe_get fan o * block) lsl 3) + q))
      in
      for k = o + 1 to e - 1 do
        acc :=
          Int64.logand !acc
            (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
      done;
      set64u dst (d + q) !acc
    done
  | 13 (* or_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let acc =
        ref (get64u src (((Array.unsafe_get fan o * block) lsl 3) + q))
      in
      for k = o + 1 to e - 1 do
        acc :=
          Int64.logor !acc
            (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
      done;
      set64u dst (d + q) !acc
    done
  | 14 (* nand_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let acc =
        ref (get64u src (((Array.unsafe_get fan o * block) lsl 3) + q))
      in
      for k = o + 1 to e - 1 do
        acc :=
          Int64.logand !acc
            (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
      done;
      set64u dst (d + q) (Int64.lognot !acc)
    done
  | 15 (* nor_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let acc =
        ref (get64u src (((Array.unsafe_get fan o * block) lsl 3) + q))
      in
      for k = o + 1 to e - 1 do
        acc :=
          Int64.logor !acc
            (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
      done;
      set64u dst (d + q) (Int64.lognot !acc)
    done
  | 16 (* xor_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let acc =
        ref (get64u src (((Array.unsafe_get fan o * block) lsl 3) + q))
      in
      for k = o + 1 to e - 1 do
        acc :=
          Int64.logxor !acc
            (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
      done;
      set64u dst (d + q) !acc
    done
  | 17 (* xnor_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let acc =
        ref (get64u src (((Array.unsafe_get fan o * block) lsl 3) + q))
      in
      for k = o + 1 to e - 1 do
        acc :=
          Int64.logxor !acc
            (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
      done;
      set64u dst (d + q) (Int64.lognot !acc)
    done
  | _ (* maj_n *) ->
    let o = Array.unsafe_get offs p and e = Array.unsafe_get offs (p + 1) in
    let arity = e - o in
    for j = 0 to width - 1 do
      let q = j lsl 3 in
      let w = ref 0L in
      for lane = 0 to 63 do
        let count = ref 0 in
        for k = o to e - 1 do
          count :=
            !count
            + Int64.to_int
                (Int64.logand
                   (Int64.shift_right_logical
                      (get64u src (((Array.unsafe_get fan k * block) lsl 3) + q))
                      lane)
                   1L)
        done;
        if !count > arity / 2 then
          w := Int64.logor !w (Int64.shift_left 1L lane)
      done;
      set64u dst (d + q) !w
    done

let exec_words_blocked c ~width ~values =
  check_values_blocked c values "Compiled.exec_words_blocked";
  check_width c width "Compiled.exec_words_blocked";
  let ops = c.sched_ops
  and offs = c.sched_offs
  and fan = c.sched_fan
  and block = c.block in
  for p = 0 to c.node_count - 1 do
    eval_pos_blocked ops offs fan ~block ~width ~src:values ~dst:values p
  done

let exec_step_blocked c ~width ~src ~dst =
  check_values_blocked c src "Compiled.exec_step_blocked";
  check_values_blocked c dst "Compiled.exec_step_blocked";
  check_width c width "Compiled.exec_step_blocked";
  if src == dst then
    invalid_arg "Compiled.exec_step_blocked: src and dst must be distinct";
  let ops = c.sched_ops
  and offs = c.sched_offs
  and fan = c.sched_fan
  and block = c.block in
  for p = 0 to c.node_count - 1 do
    eval_pos_blocked ops offs fan ~block ~width ~src ~dst p
  done

let add_ones_counts_blocked c ~width ~values ~into =
  check_values_blocked c values "Compiled.add_ones_counts_blocked";
  check_width c width "Compiled.add_ones_counts_blocked";
  if Array.length into <> c.node_count then
    invalid_arg "Compiled.add_ones_counts_blocked: wrong counter length";
  let block = c.block and sid = c.sched_id in
  for p = 0 to c.node_count - 1 do
    let base = (p * block) lsl 3 in
    let s = ref 0 in
    for j = 0 to width - 1 do
      s := !s + popcount64 (get64u values (base + (j lsl 3)))
    done;
    let id = Array.unsafe_get sid p in
    Array.unsafe_set into id (Array.unsafe_get into id + !s)
  done

let add_toggle_counts_blocked c ~width ~a ~b ~into =
  check_values_blocked c a "Compiled.add_toggle_counts_blocked";
  check_values_blocked c b "Compiled.add_toggle_counts_blocked";
  check_width c width "Compiled.add_toggle_counts_blocked";
  if Array.length into <> c.node_count then
    invalid_arg "Compiled.add_toggle_counts_blocked: wrong counter length";
  let block = c.block and sid = c.sched_id in
  for p = 0 to c.node_count - 1 do
    let base = (p * block) lsl 3 in
    let s = ref 0 in
    for j = 0 to width - 1 do
      let q = base + (j lsl 3) in
      s := !s + popcount64 (Int64.logxor (get64u a q) (get64u b q))
    done;
    let id = Array.unsafe_get sid p in
    Array.unsafe_set into id (Array.unsafe_get into id + !s)
  done

let add_output_error_counts_blocked c ~width ~golden ~noisy ~into =
  check_values_blocked c golden "Compiled.add_output_error_counts_blocked";
  check_values_blocked c noisy "Compiled.add_output_error_counts_blocked";
  check_width c width "Compiled.add_output_error_counts_blocked";
  let out = c.output_ids and slot = c.slot_of and block = c.block in
  let n_out = Array.length out in
  if Array.length into <> n_out then
    invalid_arg "Compiled.add_output_error_counts_blocked: wrong counter length";
  let total = ref 0 in
  for j = 0 to width - 1 do
    let q = j lsl 3 in
    let any = ref 0L in
    for i = 0 to n_out - 1 do
      let b =
        ((Array.unsafe_get slot (Array.unsafe_get out i) * block) lsl 3) + q
      in
      let wrong = Int64.logxor (get64u golden b) (get64u noisy b) in
      Array.unsafe_set into i (Array.unsafe_get into i + popcount64 wrong);
      any := Int64.logor !any wrong
    done;
    total := !total + popcount64 !any
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Fused noisy sweeps.                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-point noise pack: the per-node epsilons lowered onto schedule
   positions as integer thresholds plus the gate's canonical draw offset
   within a word's noise segment (prefix sums of draw consumption in
   ascending NODE-ID order — the stream layout both engines share).
   Positioned draws are what let the level-ordered sweep replay the
   id-ordered stream exactly: the primitive synthesizes the generator
   state at [gate offset + word * draws_per_word] without mutating the
   generator, and one jump per block settles the accounting. *)
type noise_pack = {
  np_thr : Bytes.t;  (** position-indexed {!Prng.threshold_bits} words *)
  np_kind : Bytes.t;
      (** position-indexed: ['\000'] quiet, ['\001'] 64-draw threshold
          gate, ['\002'] one-draw [epsilon = 1/2] gate *)
  np_off : int array;  (** position-indexed draw offset in the noise segment *)
  np_draws : int;  (** total noise draws per simulated word *)
  np_nodes : int;  (** node count of the program this pack was built for *)
}

let noise_draws_per_word pack = pack.np_draws

let pack_noise c eps =
  if Array.length eps <> c.node_count then
    invalid_arg "Compiled.pack_noise: wrong epsilons length";
  let n = c.node_count in
  let thr = Bytes.make (max 8 (n lsl 3)) '\000' in
  let kind = Bytes.make (max 1 n) '\000' in
  let off = Array.make (max 1 n) 0 in
  let acc = ref 0 in
  for id = 0 to n - 1 do
    let e = eps.(id) in
    if not (e >= 0. && e <= 0.5) then
      invalid_arg
        (Printf.sprintf
           "Compiled.pack_noise: node %d: epsilon must lie in [0, 1/2]" id);
    let p = c.slot_of.(id) in
    if Bytes.get c.sched_noisy p <> '\000' then begin
      off.(p) <- !acc;
      if e = 0.5 then begin
        (* One raw draw, matching [Prng.draws_per_word ~p:0.5]. *)
        Bytes.set kind p '\002';
        incr acc
      end
      else begin
        Bytes.set kind p '\001';
        set64 thr (p lsl 3) (Nano_util.Prng.threshold_bits ~p:e);
        acc := !acc + 64
      end
    end
  done;
  { np_thr = thr; np_kind = kind; np_off = off; np_draws = !acc; np_nodes = n }

(* Grid pack: one row of [lanes + 1] integer thresholds per noisy
   schedule position — word 0 the row maximum (the lanes primitive's
   early-out), words 1..lanes the per-lane values. Unlike the per-point
   pack every noisy gate consumes exactly 64 shared draws whatever the
   lane set, so adaptive freezing never shifts the stream. *)
type grid_pack = {
  gp_thr : Bytes.t;
  gp_lanes : int;
  gp_nodes : int;
}

let grid_lanes g = g.gp_lanes
let empty_grid_pack = { gp_thr = Bytes.empty; gp_lanes = 0; gp_nodes = 0 }

let pack_grid c eps =
  let lanes = Array.length eps in
  if lanes < 1 then invalid_arg "Compiled.pack_grid: need at least one lane";
  let tb =
    Array.mapi
      (fun k e ->
        if not (e >= 0. && e <= 0.5) then
          invalid_arg
            (Printf.sprintf
               "Compiled.pack_grid: lane %d (every gate): epsilon %g must lie \
                in [0, 1/2]"
               k e);
        Nano_util.Prng.threshold_bits ~p:e)
      eps
  in
  let tmax = Array.fold_left Int64.max 0L tb in
  let stride = (lanes + 1) lsl 3 in
  let thr = Bytes.make (max 8 (c.node_count * stride)) '\000' in
  for p = 0 to c.node_count - 1 do
    if Bytes.get c.sched_noisy p <> '\000' then begin
      let base = p * stride in
      set64 thr base tmax;
      Array.iteri (fun k t -> set64 thr (base + ((k + 1) lsl 3)) t) tb
    end
  done;
  { gp_thr = thr; gp_lanes = lanes; gp_nodes = c.node_count }

(* The heterogeneous packer exploits what the homogeneous one wastes:
   rows are already per schedule position (stride 8*(lanes+1)), the
   execution loop already reads thresholds at [p * stride], so varying
   epsilon per GATE as well as per lane costs nothing at run time — only
   the pack differs: each noisy position gets its own row and its own
   row maximum (the early-out stays as tight as that gate allows,
   instead of the global maximum). *)
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
    if Bytes.get c.sched_noisy p <> '\000' then begin
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

(* The fused per-point sweep: one pass over the levelized program per
   block of [block] words computes the golden evaluation, both noisy
   replicas (noise injected from positioned draws as each gate settles),
   and the ones/toggle counters, segment by segment, so each cache
   segment's three value rows are touched while still resident. The
   per-word stream layout — inputs_a, noise_a in ascending node-id
   order, inputs_b, noise_b — is exactly the order a sequential
   word-by-word walk draws in (Noisy_sim's interpretive engine); word
   [j] of a block owns draw interval [j*dpw, (j+1)*dpw), every
   primitive addresses its segment positionally without mutating the
   generator, and one jump per block advances it, so results are
   bit-identical to that walk at ANY block width and any sharding. *)
let run_noisy_words c ~noise ~rng ~input_probability ~words ~golden ~na ~nb
    ~ones ~toggles ~out_errors =
  check_values_blocked c golden "Compiled.run_noisy_words";
  check_values_blocked c na "Compiled.run_noisy_words";
  check_values_blocked c nb "Compiled.run_noisy_words";
  if noise.np_nodes <> c.node_count then
    invalid_arg
      "Compiled.run_noisy_words: noise pack does not match program (use \
       Compiled.pack_noise)";
  if words < 0 then invalid_arg "Compiled.run_noisy_words: words must be >= 0";
  if Array.length ones <> c.node_count then
    invalid_arg "Compiled.run_noisy_words: wrong ones counter length";
  if Array.length toggles <> c.node_count then
    invalid_arg "Compiled.run_noisy_words: wrong toggles counter length";
  let n_out = Array.length c.output_ids in
  if Array.length out_errors <> n_out then
    invalid_arg "Compiled.run_noisy_words: wrong output counter length";
  let block = c.block in
  let ops = c.sched_ops and offs = c.sched_offs and fan = c.sched_fan in
  let kind = noise.np_kind and thr = noise.np_thr and noff = noise.np_off in
  let segs = c.seg_starts in
  let nseg = Array.length segs - 1 in
  let out = c.output_ids and slot = c.slot_of and sid = c.sched_id in
  let ipw = Nano_util.Prng.draws_per_word ~p:input_probability in
  let in_draws = Array.length c.input_ids * ipw in
  let half = in_draws + noise.np_draws in
  let dpw = 2 * half in
  let any_count = ref 0 in
  let done_words = ref 0 in
  while !done_words < words do
    let bw = min block (words - !done_words) in
    draw_input_words_blocked c rng ~offset:0 ~stride:dpw ~width:bw
      ~input_probability ~values:golden;
    copy_input_words_blocked c ~src:golden ~dst:na;
    draw_input_words_blocked c rng ~offset:half ~stride:dpw ~width:bw
      ~input_probability ~values:nb;
    for s = 0 to nseg - 1 do
      let lo = Array.unsafe_get segs s
      and hi = Array.unsafe_get segs (s + 1) in
      for p = lo to hi - 1 do
        eval_pos_blocked ops offs fan ~block ~width:bw ~src:golden ~dst:golden
          p
      done;
      for p = lo to hi - 1 do
        eval_pos_blocked ops offs fan ~block ~width:bw ~src:na ~dst:na p;
        let k = Bytes.unsafe_get kind p in
        if k <> '\000' then begin
          let off = in_draws + Array.unsafe_get noff p in
          if k = '\001' then
            Nano_util.Prng.xor_noise_blocked rng ~offset:off ~stride:dpw
              ~width:bw ~thr ~thr_pos:(p lsl 3) na ~pos:((p * block) lsl 3)
          else
            Nano_util.Prng.xor_bits64_blocked rng ~offset:off ~stride:dpw
              ~width:bw na ~pos:((p * block) lsl 3)
        end
      done;
      for p = lo to hi - 1 do
        eval_pos_blocked ops offs fan ~block ~width:bw ~src:nb ~dst:nb p;
        let k = Bytes.unsafe_get kind p in
        if k <> '\000' then begin
          let off = half + in_draws + Array.unsafe_get noff p in
          if k = '\001' then
            Nano_util.Prng.xor_noise_blocked rng ~offset:off ~stride:dpw
              ~width:bw ~thr ~thr_pos:(p lsl 3) nb ~pos:((p * block) lsl 3)
          else
            Nano_util.Prng.xor_bits64_blocked rng ~offset:off ~stride:dpw
              ~width:bw nb ~pos:((p * block) lsl 3)
        end
      done;
      for p = lo to hi - 1 do
        let base = (p * block) lsl 3 in
        let s1 = ref 0 and s2 = ref 0 in
        for j = 0 to bw - 1 do
          let q = base + (j lsl 3) in
          let a = get64u na q in
          s1 := !s1 + popcount64 a;
          s2 := !s2 + popcount64 (Int64.logxor a (get64u nb q))
        done;
        let id = Array.unsafe_get sid p in
        Array.unsafe_set ones id (Array.unsafe_get ones id + !s1);
        Array.unsafe_set toggles id (Array.unsafe_get toggles id + !s2)
      done
    done;
    for j = 0 to bw - 1 do
      let q = j lsl 3 in
      let any = ref 0L in
      for i = 0 to n_out - 1 do
        let b =
          ((Array.unsafe_get slot (Array.unsafe_get out i) * block) lsl 3) + q
        in
        let wrong = Int64.logxor (get64u golden b) (get64u na b) in
        Array.unsafe_set out_errors i
          (Array.unsafe_get out_errors i + popcount64 wrong);
        any := Int64.logor !any wrong
      done;
      any_count := !any_count + popcount64 !any
    done;
    Nano_util.Prng.jump rng ~draws:(bw * dpw);
    done_words := !done_words + bw
  done;
  !any_count

(* The fused grid sweep: one pass for a whole multi-epsilon grid. Lane
   replicas advance gate by gate within each segment — every lane's
   clean value must exist before the ONE shared 64-uniform draw per
   noisy gate is thinned against all lane thresholds (the
   common-random-numbers coupling) — while the golden pair, the
   counters and the noise offsets follow the same positioned-draw
   discipline as {!run_noisy_words}. With [grid = empty_grid_pack] only
   the golden statistics are computed, yet the jump accounting still
   covers the noise segments, so frozen-lane continuation runs stay
   stream-aligned. *)
let run_noisy_grid_words c ~grid ~rng ~input_probability ~words ~need0
    ~golden_a ~golden_b ~na ~nb ~ones0 ~toggles0 ~ones ~toggles ~out_errors
    ~any =
  let lanes = grid.gp_lanes in
  check_values_blocked c golden_a "Compiled.run_noisy_grid_words";
  check_values_blocked c golden_b "Compiled.run_noisy_grid_words";
  if lanes > 0 && grid.gp_nodes <> c.node_count then
    invalid_arg
      "Compiled.run_noisy_grid_words: grid pack does not match program (use \
       Compiled.pack_grid)";
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
  let block = c.block in
  let ops = c.sched_ops and offs = c.sched_offs and fan = c.sched_fan in
  let noisy = c.sched_noisy and rank = c.sched_noise_rank in
  let thr = grid.gp_thr in
  let thr_stride = (lanes + 1) lsl 3 in
  let segs = c.seg_starts in
  let nseg = Array.length segs - 1 in
  let out = c.output_ids and slot = c.slot_of and sid = c.sched_id in
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
    for k = 0 to lanes - 1 do
      copy_input_words_blocked c ~src:golden_a ~dst:(Array.unsafe_get na k)
    done;
    draw_input_words_blocked c rng ~offset:half ~stride:dpw ~width:bw
      ~input_probability ~values:golden_b;
    for k = 0 to lanes - 1 do
      copy_input_words_blocked c ~src:golden_b ~dst:(Array.unsafe_get nb k)
    done;
    for s = 0 to nseg - 1 do
      let lo = Array.unsafe_get segs s
      and hi = Array.unsafe_get segs (s + 1) in
      for p = lo to hi - 1 do
        eval_pos_blocked ops offs fan ~block ~width:bw ~src:golden_a
          ~dst:golden_a p
      done;
      if need0 then
        for p = lo to hi - 1 do
          eval_pos_blocked ops offs fan ~block ~width:bw ~src:golden_b
            ~dst:golden_b p
        done;
      if lanes > 0 then begin
        for p = lo to hi - 1 do
          for k = 0 to lanes - 1 do
            let v = Array.unsafe_get na k in
            eval_pos_blocked ops offs fan ~block ~width:bw ~src:v ~dst:v p
          done;
          if Bytes.unsafe_get noisy p <> '\000' then
            Nano_util.Prng.xor_noise_lanes_blocked rng
              ~offset:(in_draws + (64 * Array.unsafe_get rank p))
              ~stride:dpw ~width:bw ~thr ~thr_pos:(p * thr_stride) ~lanes na
              ~pos:((p * block) lsl 3)
        done;
        for p = lo to hi - 1 do
          for k = 0 to lanes - 1 do
            let v = Array.unsafe_get nb k in
            eval_pos_blocked ops offs fan ~block ~width:bw ~src:v ~dst:v p
          done;
          if Bytes.unsafe_get noisy p <> '\000' then
            Nano_util.Prng.xor_noise_lanes_blocked rng
              ~offset:(half + in_draws + (64 * Array.unsafe_get rank p))
              ~stride:dpw ~width:bw ~thr ~thr_pos:(p * thr_stride) ~lanes nb
              ~pos:((p * block) lsl 3)
        done
      end;
      if need0 then
        for p = lo to hi - 1 do
          let base = (p * block) lsl 3 in
          let s1 = ref 0 and s2 = ref 0 in
          for j = 0 to bw - 1 do
            let q = base + (j lsl 3) in
            let a = get64u golden_a q in
            s1 := !s1 + popcount64 a;
            s2 := !s2 + popcount64 (Int64.logxor a (get64u golden_b q))
          done;
          let id = Array.unsafe_get sid p in
          Array.unsafe_set ones0 id (Array.unsafe_get ones0 id + !s1);
          Array.unsafe_set toggles0 id (Array.unsafe_get toggles0 id + !s2)
        done;
      for k = 0 to lanes - 1 do
        let va = Array.unsafe_get na k and vb = Array.unsafe_get nb k in
        let ok = Array.unsafe_get ones k and tk = Array.unsafe_get toggles k in
        for p = lo to hi - 1 do
          let base = (p * block) lsl 3 in
          let s1 = ref 0 and s2 = ref 0 in
          for j = 0 to bw - 1 do
            let q = base + (j lsl 3) in
            let a = get64u va q in
            s1 := !s1 + popcount64 a;
            s2 := !s2 + popcount64 (Int64.logxor a (get64u vb q))
          done;
          let id = Array.unsafe_get sid p in
          Array.unsafe_set ok id (Array.unsafe_get ok id + !s1);
          Array.unsafe_set tk id (Array.unsafe_get tk id + !s2)
        done
      done
    done;
    for k = 0 to lanes - 1 do
      let va = Array.unsafe_get na k in
      let ek = Array.unsafe_get out_errors k in
      let cnt = ref 0 in
      for j = 0 to bw - 1 do
        let q = j lsl 3 in
        let anyw = ref 0L in
        for i = 0 to n_out - 1 do
          let b =
            ((Array.unsafe_get slot (Array.unsafe_get out i) * block) lsl 3)
            + q
          in
          let wrong = Int64.logxor (get64u golden_a b) (get64u va b) in
          Array.unsafe_set ek i (Array.unsafe_get ek i + popcount64 wrong);
          anyw := Int64.logor !anyw wrong
        done;
        cnt := !cnt + popcount64 !anyw
      done;
      any.(k) <- any.(k) + !cnt
    done;
    Nano_util.Prng.jump rng ~draws:(bw * dpw);
    done_words := !done_words + bw
  done
