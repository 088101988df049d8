type params = {
  epsilon : float;
  delta : float;
  fanin : int;
  sensitivity : int;
}

type omega_model = Gate_lumped | Wire_split

let valid p =
  p.epsilon > 0. && p.epsilon <= 0.5
  && p.delta >= 0. && p.delta < 0.5
  && p.fanin >= 2 && p.sensitivity >= 1

let check p =
  if not (valid p) then
    invalid_arg "Redundancy_bound: parameters outside Theorem 2's domain"

let stable_below = 1e-6

let omega ?(model = Gate_lumped) ~fanin epsilon =
  if not (epsilon > 0. && epsilon <= 0.5) then
    invalid_arg "Redundancy_bound.omega: epsilon must lie in (0, 1/2]";
  if fanin < 1 then invalid_arg "Redundancy_bound.omega: fanin must be >= 1";
  let k = float_of_int fanin in
  if epsilon < stable_below then
    (* 1 - (1 - 2ε)^k cancels as ε -> 0 and reaches 0 below about
       1e-17, where t_parameter would reject it; the expm1/log1p form
       keeps every digit. Only below the cutoff, so every ε the goldens
       use keeps the bytes of the direct form. *)
    let l = Float.log1p (-2. *. epsilon) in
    match model with
    | Gate_lumped -> -.Float.expm1 (k *. l) /. 2.
    | Wire_split ->
      (* About ε/k, which for the smallest subnormal ε lies below every
         positive double: keep the smallest one rather than 0. *)
      Float.max (Float.succ 0.) (-.Float.expm1 (l /. k) /. 2.)
  else
    let x = 1. -. (2. *. epsilon) in
    match model with
    | Gate_lumped -> (1. -. Nano_util.Math_ext.float_pow_int x fanin) /. 2.
    | Wire_split -> (1. -. (x ** (1. /. k))) /. 2.

let t_parameter ~omega:w =
  if not (w > 0. && w <= 0.5) then
    invalid_arg "Redundancy_bound.t_parameter: omega must lie in (0, 1/2]";
  let cube x = x *. x *. x in
  (cube w +. cube (1. -. w)) /. (w *. (1. -. w))

let log2_t ?(model = Gate_lumped) ~fanin epsilon =
  let w = omega ~model ~fanin epsilon in
  if epsilon < stable_below then begin
    (* log t = log(1 - 3ω(1 - ω)) - log ω - log(1 - ω), which stays
       finite where t itself overflows (ω below about 1e-308). Under the
       smallest normal double ω has lost digits or been clamped, but
       there it is kε or ε/k to within a relative O(ε). *)
    let log_w =
      if w >= Float.min_float then log w
      else
        let log_k = log (float_of_int fanin) in
        match model with
        | Gate_lumped -> log epsilon +. log_k
        | Wire_split -> log epsilon -. log_k
    in
    (Float.log1p (3. *. w *. (w -. 1.)) -. log_w -. Float.log1p (-.w))
    /. log 2.
  end
  else Nano_util.Math_ext.log2 (t_parameter ~omega:w)

let extra_gates ?(model = Gate_lumped) p =
  check p;
  let s = float_of_int p.sensitivity in
  let k = float_of_int p.fanin in
  let log_t = log2_t ~model ~fanin:p.fanin p.epsilon in
  let numerator =
    (s *. Nano_util.Math_ext.log2 s)
    +. (2. *. s *. Nano_util.Math_ext.log2 (2. *. (1. -. (2. *. p.delta))))
  in
  if log_t = 0. then
    (* ε = 1/2: the channel output carries no information. *)
    if numerator > 0. then infinity else 0.
  else
    (* The numerator [s log s + 2s log(2(1-2δ))] goes negative for very
       insensitive functions at tiny ε, and for any s once δ approaches
       1/2 (the log term tends to -∞). A negative gate count is not a
       bound on anything — Theorem 2 is simply vacuous there — so clamp
       at zero, which keeps [min_size] and [redundancy_factor]
       consistent without their own special cases. *)
    Float.max 0. (numerator /. (k *. log_t))

let min_size ?model p ~error_free_size =
  if error_free_size < 1 then
    invalid_arg "Redundancy_bound.min_size: error_free_size must be >= 1";
  let s0 = float_of_int error_free_size in
  Float.max s0 (s0 +. extra_gates ?model p)

let redundancy_factor ?model p ~error_free_size =
  min_size ?model p ~error_free_size /. float_of_int error_free_size

let size_upper_bound ~error_free_size =
  if error_free_size < 2 then
    invalid_arg "Redundancy_bound.size_upper_bound: size must be >= 2";
  let s0 = float_of_int error_free_size in
  s0 *. Nano_util.Math_ext.log2 s0
