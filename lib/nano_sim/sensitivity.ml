module Netlist = Nano_netlist.Netlist
module Compiled = Nano_netlist.Compiled
module Par = Nano_util.Par
module Prng = Nano_util.Prng

(* Bit-parallel flip evaluation. An (assignment, chunk) word carries
   the assignment in lane 0 and, in lane j (1 <= j <= 63), the
   assignment with the chunk's j-th input flipped, so one word measures
   up to 63 single-input flips. The words of [count] assignments are
   laid end to end, each assignment's chunks in order, across blocked
   sweeps of at most [block_width] words: a circuit with at most 63
   inputs settles [block_width] assignments per sweep, and an
   assignment with more chunks than that spans sweeps. [fill k bits]
   writes assignment [k]'s bits, called once per assignment in order.
   The maximum over the assignments, stopping between sweeps once it
   reaches [ceiling]; the assignments a sweep adds past that point
   cannot exceed it. [values] is a {!Compiled.create_values_blocked}
   buffer owned by the caller, so a shard reuses one buffer. *)
let max_over c ~values ~ceiling ~count ~fill =
  let input_ids = Compiled.input_ids c in
  let n = Array.length input_ids in
  let out_ids = Compiled.output_ids c in
  let block = Compiled.block_width c in
  let nchunks = (n + 62) / 63 in
  let total = count * nchunks in
  let bits = Array.make n false in
  let best = ref 0 and changed = ref 0 and laid = ref 0 in
  while !laid < total && !best < ceiling do
    let bw = min block (total - !laid) in
    for j = 0 to bw - 1 do
      let chunk = (!laid + j) mod nchunks in
      if chunk = 0 then fill ((!laid + j) / nchunks) bits;
      let chunk_start = chunk * 63 in
      for i = 0 to n - 1 do
        let base = if bits.(i) then -1L else 0L in
        let local = i - chunk_start in
        let w =
          if local >= 0 && local < 63 then
            (* Flip this input in its dedicated lane (local + 1). *)
            Int64.logxor base (Int64.shift_left 1L (local + 1))
          else base
        in
        Compiled.set_word_blocked c ~values ~id:input_ids.(i) ~word:j w
      done
    done;
    Compiled.exec_words_blocked c ~width:bw ~values;
    for j = 0 to bw - 1 do
      let chunk = (!laid + j) mod nchunks in
      let flips = min 63 (n - (chunk * 63)) in
      (* A lane differs from lane 0 when some output bit differs. *)
      let diff = ref 0L in
      Array.iter
        (fun id ->
          let w = Compiled.get_word_blocked c ~values ~id ~word:j in
          (* Spread lane 0's bit across all lanes and XOR. *)
          let spread = Int64.neg (Int64.logand w 1L) in
          diff := Int64.logor !diff (Int64.logxor w spread))
        out_ids;
      (* Each input lives in exactly one chunk, so summing over an
         assignment's chunks counts distinct changed inputs. *)
      changed :=
        !changed
        + Nano_util.Bits.popcount64
            (Int64.logand
               (Int64.shift_right_logical !diff 1)
               (Nano_util.Bits.ones_below flips));
      if chunk = nchunks - 1 then begin
        if !changed > !best then best := !changed;
        changed := 0
      end
    done;
    laid := !laid + bw
  done;
  !best

let at_assignment netlist bits =
  let c = Compiled.of_netlist netlist in
  if Array.length bits <> Array.length (Compiled.input_ids c) then
    invalid_arg "Sensitivity.at_assignment: wrong number of input bits";
  max_over c ~values:(Compiled.create_values_blocked c) ~ceiling:max_int
    ~count:1 ~fill:(fun _ dst -> Array.blit bits 0 dst 0 (Array.length bits))

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

(* Maximum over the assignments encoded by integers [lo, hi); each
   shard allocates its own evaluation buffer, so shards share nothing
   but the read-only compiled program. *)
let max_over_range c n ~ceiling (lo, hi) =
  max_over c ~values:(Compiled.create_values_blocked c) ~ceiling
    ~count:(hi - lo) ~fill:(fun k bits ->
      let a = lo + k in
      for i = 0 to n - 1 do
        bits.(i) <- (a lsr i) land 1 = 1
      done)

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
    max_over c ~values:(Compiled.create_values_blocked c) ~ceiling
      ~count:(hi - lo) ~fill:(fun _ bits ->
        for i = 0 to n - 1 do
          bits.(i) <- Prng.bool rng
        done)
  in
  Array.fold_left max 0 (Par.map ~jobs shard (Par.ranges ~jobs samples))

let estimate ?seed ?samples ?jobs netlist =
  match exact ?jobs netlist with
  | Some s -> s
  | None -> sampled ?seed ?samples ?jobs netlist
