type t = {
  mutable tags : int array;
  mutable starts : int array;
      (* node [i]'s operands: [ops.(starts.(i)) .. ops.(starts.(i + 1) - 1)] *)
  mutable ops : int array;
  mutable count : int;
  mutable slots : int array;
      (* [epoch lsl id_bits lor id]; a slot of an older epoch is free *)
  mutable epoch : int;
}

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

let create () =
  {
    tags = [||];
    starts = [| 0 |];
    ops = [||];
    count = 0;
    slots = [||];
    epoch = 0;
  }

(* Arrays grow by at least doubling, so a store reused across runs of
   rising size reallocates O(log size) times. *)
let room a n =
  if Array.length a >= n then a
  else Array.make (max n (2 * Array.length a)) 0

let reset t ~nodes ~operands =
  t.count <- 0;
  if Array.length t.tags < nodes then begin
    t.tags <- room t.tags nodes;
    t.starts <- Array.make (Array.length t.tags + 1) 0
  end;
  t.ops <- room t.ops operands;
  (* Load at most 1/2, so linear probing always meets a free slot. *)
  let rec pow2 p = if p >= 2 * nodes then p else pow2 (2 * p) in
  let size = pow2 16 in
  if Array.length t.slots < size || t.epoch = id_mask then begin
    t.slots <- Array.make (max size (Array.length t.slots)) 0;
    t.epoch <- 1
  end
  else t.epoch <- t.epoch + 1

let count t = t.count
let tag t i = t.tags.(i)
let arity t i = t.starts.(i + 1) - t.starts.(i)
let operand t i j = t.ops.(t.starts.(i) + j)

let add t tag key len =
  let id = t.count in
  let s = t.starts.(id) in
  Array.blit key 0 t.ops s len;
  t.tags.(id) <- tag;
  t.starts.(id + 1) <- s + len;
  t.count <- id + 1;
  id

let hash tag key len =
  let h = ref (tag + 1) in
  for i = 0 to len - 1 do
    h := (!h + key.(i)) * 0x9E3779B97F4A7C1
  done;
  !h lxor (!h lsr 32)

let same t id tag key len =
  t.tags.(id) = tag
  && arity t id = len
  &&
  let s = t.starts.(id) in
  let rec go j = j = len || (t.ops.(s + j) = key.(j) && go (j + 1)) in
  go 0

let share t tag key len =
  let mask = Array.length t.slots - 1 in
  let rec probe i =
    let slot = t.slots.(i) in
    if slot lsr id_bits <> t.epoch then begin
      let id = add t tag key len in
      t.slots.(i) <- (t.epoch lsl id_bits) lor id;
      id
    end
    else
      let id = slot land id_mask in
      if same t id tag key len then id else probe ((i + 1) land mask)
  in
  probe (hash tag key len land mask)

let sort key len =
  if len <= 16 then
    for i = 1 to len - 1 do
      let x = key.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && key.(!j) > x do
        key.(!j + 1) <- key.(!j);
        decr j
      done;
      key.(!j + 1) <- x
    done
  else begin
    let sub = Array.sub key 0 len in
    Array.sort Int.compare sub;
    Array.blit sub 0 key 0 len
  end
