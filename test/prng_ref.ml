(* Pure-OCaml references for the C draw kernels behind [Nano_util.Prng]:
   the single-threshold noise kernel, the multi-lane grid kernel and the
   biased stimulus store. test_prng pins each kernel to them bit for bit.
   SplitMix64 is restated here and the generator is read only through
   its public state buffer, so the oracle shares no code with what it
   checks. Draw [i] of word [j] comes from the state
   [s0 + (offset + j*stride + i + 1) * gamma], mixed and truncated to 53
   bits, and sets bit [i] when it falls below the threshold
   [ceil (p * 2^53)]. *)

let get64 = Bytes.get_int64_ne
let set64 = Bytes.set_int64_ne
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The generator state [offset] draws ahead of [t]'s (wrapping, as the
   kernels' arithmetic does). *)
let state_at t offset =
  Int64.add
    (get64 (Nano_util.Prng.state_buffer t) 0)
    (Int64.mul (Int64.of_int offset) golden_gamma)

(* The 64-draw mask of the word whose draws follow state [base]. *)
let mask_at base tbits =
  let s = ref base in
  let acc = ref 0L in
  for i = 0 to 63 do
    s := Int64.add !s golden_gamma;
    let u = Int64.shift_right_logical (mix !s) 11 in
    if Int64.compare u tbits < 0 then
      acc := Int64.logor !acc (Int64.shift_left 1L i)
  done;
  !acc

let xor_noise_blocked t ~offset ~stride ~width ~thr ~thr_pos dst ~pos =
  let tbits = get64 thr thr_pos in
  for j = 0 to width - 1 do
    let base = state_at t (offset + (j * stride)) in
    let p = pos + (j lsl 3) in
    set64 dst p (Int64.logxor (get64 dst p) (mask_at base tbits))
  done

(* Bit [i] of lane [k] flips when draw [i] falls below both the row
   bound (word 0) and lane [k]'s threshold (word [k + 1]). *)
let xor_noise_lanes_blocked t ~offset ~stride ~width ~thr ~thr_pos ~lanes
    (dst : Bytes.t array) ~pos =
  let tmax = get64 thr thr_pos in
  for j = 0 to width - 1 do
    let s = ref (state_at t (offset + (j * stride))) in
    let q = pos + (j lsl 3) in
    for i = 0 to 63 do
      s := Int64.add !s golden_gamma;
      let u = Int64.shift_right_logical (mix !s) 11 in
      for k = 0 to lanes - 1 do
        let t = get64 thr (thr_pos + ((k + 1) lsl 3)) in
        if Int64.compare u tmax < 0 && Int64.compare u t < 0 then
          set64 dst.(k) q
            (Int64.logxor (get64 dst.(k) q) (Int64.shift_left 1L i))
      done
    done
  done

(* One draw per word at p = 1/2 (the raw mix), 64 otherwise. *)
let store_words_with_density_at t ~offset ~stride ~width ~p dst ~pos
    ~pos_stride =
  let tbits = Int64.of_float (Float.ceil (p *. 9007199254740992.)) in
  for j = 0 to width - 1 do
    let base = state_at t (offset + (j * stride)) in
    let word =
      if p = 0.5 then mix (Int64.add base golden_gamma) else mask_at base tbits
    in
    set64 dst (pos + (j * pos_stride)) word
  done
