module Netlist = Nano_netlist.Netlist
module Compiled = Nano_netlist.Compiled
module Par = Nano_util.Par
module Prng = Nano_util.Prng

(* Bit-parallel flip evaluation: within each 64-lane word, lane 0
   carries the base assignment and lane j (1 <= j <= 63) the assignment
   with one input flipped, so one word measures up to 63 single-input
   flips — and the blocked kernel evaluates up to [block_width] such
   chunk words per gate visit, so wide-input circuits settle all their
   flip chunks in one sweep. [values] is a
   {!Compiled.create_values_blocked} buffer owned by the caller, so the
   per-assignment loops of {!exact} and {!sampled} reuse one buffer for
   the whole shard instead of allocating per assignment. *)
let at_assignment_in c ~values bits =
  let n = Array.length bits in
  let input_ids = Compiled.input_ids c in
  if n <> Array.length input_ids then
    invalid_arg "Sensitivity.at_assignment: wrong number of input bits";
  let out_ids = Compiled.output_ids c in
  let n_out = Array.length out_ids in
  let block = Compiled.block_width c in
  let nchunks = (n + 62) / 63 in
  let changed = ref 0 in
  let first_chunk = ref 0 in
  while !first_chunk < nchunks do
    let bw = min block (nchunks - !first_chunk) in
    for j = 0 to bw - 1 do
      let chunk_start = (!first_chunk + j) * 63 in
      let flips = min 63 (n - chunk_start) in
      for i = 0 to n - 1 do
        let base = if bits.(i) then -1L else 0L in
        let local = i - chunk_start in
        let w =
          if local >= 0 && local < flips then
            (* Flip this input in its dedicated lane (local + 1). *)
            Int64.logxor base (Int64.shift_left 1L (local + 1))
          else base
        in
        Compiled.set_word_blocked c ~values ~id:input_ids.(i) ~word:j w
      done
    done;
    Compiled.exec_words_blocked c ~width:bw ~values;
    for j = 0 to bw - 1 do
      let chunk_start = (!first_chunk + j) * 63 in
      let flips = min 63 (n - chunk_start) in
      (* A lane differs from lane 0 when some output bit differs. *)
      let diff = ref 0L in
      for i = 0 to n_out - 1 do
        let w = Compiled.get_word_blocked c ~values ~id:out_ids.(i) ~word:j in
        let base_bit = Int64.logand w 1L in
        (* Spread lane 0's bit across all lanes and XOR. *)
        let spread = Int64.neg base_bit (* 0 -> 0L, 1 -> all ones *) in
        diff := Int64.logor !diff (Int64.logxor w spread)
      done;
      (* Each input lives in exactly one chunk, so counting here equals
         counting distinct changed inputs. *)
      for l = 0 to flips - 1 do
        if Nano_util.Bits.get !diff (l + 1) then incr changed
      done
    done;
    first_chunk := !first_chunk + bw
  done;
  !changed

let at_assignment netlist bits =
  let c = Compiled.of_netlist netlist in
  at_assignment_in c ~values:(Compiled.create_values_blocked c) bits

(* The structural ceiling: inputs in the transitive fanin of some
   output. Flipping an input outside every output's cone changes no
   output, so no assignment's sensitivity exceeds this count, and a
   shard whose running maximum reaches it has found the maximum. It is
   the support, not the input count: a circuit with an unused input
   would otherwise never stop early. *)
let support netlist =
  let in_cone =
    Netlist.transitive_fanin netlist
      (Array.to_list (Netlist.output_ids netlist))
  in
  Array.fold_left
    (fun k id -> if in_cone id then k + 1 else k)
    0 (Netlist.input_ids netlist)

(* Maximum of [at_assignment] over the assignments encoded by integers
   [lo, hi), stopping at [ceiling]; each shard allocates its own
   evaluation buffer, so shards share nothing but the read-only compiled
   program. *)
let max_over_range c n ~ceiling (lo, hi) =
  let bits = Array.make n false in
  let values = Compiled.create_values_blocked c in
  let best = ref 0 in
  let a = ref lo in
  while !a < hi && !best < ceiling do
    for i = 0 to n - 1 do
      bits.(i) <- (!a lsr i) land 1 = 1
    done;
    let s = at_assignment_in c ~values bits in
    if s > !best then best := s;
    incr a
  done;
  !best

let exact ?(max_inputs = 12) ?(jobs = 1) netlist =
  let n = Netlist.input_count netlist in
  if n > max_inputs then None
  else begin
    (* Partition the assignment space [0, 2^n) into contiguous ranges;
       the maximum is order-insensitive, and every shard either scans its
       whole range or stops at the ceiling no shard can pass, so the
       result cannot depend on the job count. *)
    let c = Compiled.of_netlist netlist in
    let ceiling = support netlist in
    Some
      (Array.fold_left max 0
         (Par.map ~jobs
            (max_over_range c n ~ceiling)
            (Par.ranges ~jobs (1 lsl n))))
  end

let sampled ?(seed = 0x5e15) ?(samples = 2048) ?(jobs = 1) netlist =
  let n = Netlist.input_count netlist in
  let c = Compiled.of_netlist netlist in
  let ceiling = support netlist in
  (* Each sample consumes exactly [n] PRNG draws (one per input bit), so
     a shard handling samples [lo, hi) jumps the seed stream to draw
     [lo * n] and replays the exact segment the sequential loop would
     use: results are bit-identical for every job count. A shard that
     reaches the ceiling stops; the samples it skips could not raise the
     maximum. *)
  let shard (lo, hi) =
    let rng = Prng.create ~seed in
    Prng.jump rng ~draws:(lo * n);
    let bits = Array.make n false in
    let values = Compiled.create_values_blocked c in
    let best = ref 0 in
    let k = ref lo in
    while !k < hi && !best < ceiling do
      for i = 0 to n - 1 do
        bits.(i) <- Prng.bool rng
      done;
      let s = at_assignment_in c ~values bits in
      if s > !best then best := s;
      incr k
    done;
    !best
  in
  Array.fold_left max 0 (Par.map ~jobs shard (Par.ranges ~jobs samples))

let estimate ?seed ?samples ?jobs netlist =
  match exact ?jobs netlist with
  | Some s -> s
  | None -> sampled ?seed ?samples ?jobs netlist
