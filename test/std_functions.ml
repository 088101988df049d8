module Truth_table = Nano_logic.Truth_table

let popcount_assignment a arity =
  let count = ref 0 in
  for i = 0 to arity - 1 do
    if (a lsr i) land 1 = 1 then incr count
  done;
  !count

let parity ~arity =
  Truth_table.create ~arity (fun a -> popcount_assignment a arity land 1 = 1)

let majority ~arity =
  assert (arity land 1 = 1);
  Truth_table.create ~arity (fun a -> popcount_assignment a arity > arity / 2)

let and_all ~arity =
  Truth_table.create ~arity (fun a -> popcount_assignment a arity = arity)

let or_all ~arity =
  Truth_table.create ~arity (fun a -> popcount_assignment a arity > 0)

let mux ~select_bits =
  assert (select_bits >= 1);
  let data = 1 lsl select_bits in
  let arity = select_bits + data in
  Truth_table.create ~arity (fun a ->
      let sel = a land ((1 lsl select_bits) - 1) in
      let chosen = select_bits + sel in
      (a lsr chosen) land 1 = 1)

let operands ~width a =
  let mask = (1 lsl width) - 1 in
  (a land mask, (a lsr width) land mask)

let adder_sum_bit ~width ~bit =
  assert (bit >= 0 && bit < width);
  assert (2 * width <= 20);
  Truth_table.create ~arity:(2 * width) (fun a ->
      let x, y = operands ~width a in
      ((x + y) lsr bit) land 1 = 1)

let adder_carry_out ~width =
  assert (2 * width <= 20);
  Truth_table.create ~arity:(2 * width) (fun a ->
      let x, y = operands ~width a in
      x + y >= 1 lsl width)

let comparator_greater ~width =
  assert (2 * width <= 20);
  Truth_table.create ~arity:(2 * width) (fun a ->
      let x, y = operands ~width a in
      x > y)

let threshold ~arity ~k =
  Truth_table.create ~arity (fun a -> popcount_assignment a arity >= k)
