(* Nodes are integers indexing parallel growable int arrays inside the
   manager. Index 0 is the FALSE terminal, index 1 the TRUE terminal.
   Internal nodes satisfy the ROBDD invariants: low <> high and the
   variable index of a node is strictly smaller than those of its
   children (terminals carry variable [terminal_var]). A node is always
   created after its children, so children have smaller indices.

   Every table is flat, so building a node allocates nothing on the
   OCaml heap beyond the occasional doubling of an array:
   - the unique table is a power-of-two array of bucket heads, threaded
     through the per-node [chain] index (-1 ends a chain); it has one
     bucket per node slot and is rebuilt whenever the node store doubles;
   - the computed table is an exact open-addressed table (linear
     probing) over parallel key/result arrays. It never evicts: it
     doubles at half load, so an apply's work keeps its |f|.|g|.|h|
     bound, which a lossy cache would not. An ITE key (f, g, h) is
     stored in two words, [g] and [h] packed into one, so node indices
     must stay below 2^31 ([grow] enforces it);
   - traversals mark visited nodes in [stamp] with a fresh epoch per
     call instead of allocating a visited set. *)

type node = int

let terminal_var = max_int
let node_false = 0
let node_true = 1

type manager = {
  mutable var : int array;
  mutable low : int array;
  mutable high : int array;
  mutable chain : int array;
  mutable stamp : int array;
  mutable next_free : int;
  mutable epoch : int;
  mutable buckets : int array;
  (* Computed-table keys and results; [key_f.(i) < 0] marks a free
     slot. ITE entries key on (f, pack g h) >= 0, cofactor entries
     ({!restrict}) on (n, -1 - (2 var + value)) < 0, so the two never
     collide. *)
  mutable key_f : int array;
  mutable key_gh : int array;
  mutable result : int array;
  mutable computed : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let manager ?(initial_capacity = 1024) () =
  let cap = pow2_at_least initial_capacity 2 in
  let m =
    {
      var = Array.make cap terminal_var;
      low = Array.make cap 0;
      high = Array.make cap 0;
      chain = Array.make cap (-1);
      stamp = Array.make cap 0;
      next_free = 2;
      epoch = 0;
      buckets = Array.make cap (-1);
      key_f = Array.make cap (-1);
      key_gh = Array.make cap 0;
      result = Array.make cap 0;
      computed = 0;
    }
  in
  (* Terminals point to themselves. *)
  m.low.(1) <- 1;
  m.high.(1) <- 1;
  m

let node_count m = m.next_free

(* A node pair packs into one non-negative word, injectively while
   nodes stay below 2^31: the computed table keys on it (cofactor
   entries put a negative tag in its place) and the unique table
   hashes it. *)
let[@inline] pack b c = (b lsl 31) lor c

let[@inline] hash2 a b =
  let h = (a * 0x9E3779B97F4A7C1) + b in
  let h = (h lxor (h lsr 31)) * 0x27D4EB2F165667C5 in
  h lxor (h lsr 29)

(* ------------------------------------------------------------------ *)
(* Unique table.                                                       *)
(* ------------------------------------------------------------------ *)

let bucket m v lo hi = hash2 v (pack lo hi) land (Array.length m.buckets - 1)

let link m n =
  let b = bucket m m.var.(n) m.low.(n) m.high.(n) in
  m.chain.(n) <- m.buckets.(b);
  m.buckets.(b) <- n

let max_nodes = 1 lsl 31

let grow m =
  let cap = Array.length m.var in
  let cap' = cap * 2 in
  if cap' > max_nodes then failwith "Bdd: node store full (2^31 nodes)";
  let extend a fillv =
    let a' = Array.make cap' fillv in
    Array.blit a 0 a' 0 cap;
    a'
  in
  m.var <- extend m.var terminal_var;
  m.low <- extend m.low 0;
  m.high <- extend m.high 0;
  m.chain <- extend m.chain (-1);
  m.stamp <- extend m.stamp 0;
  m.buckets <- Array.make cap' (-1);
  for n = 2 to m.next_free - 1 do
    link m n
  done

let rec find_in_chain m v lo hi n =
  if n < 0 || (m.var.(n) = v && m.low.(n) = lo && m.high.(n) = hi) then n
  else find_in_chain m v lo hi m.chain.(n)

(* Hash-consed constructor enforcing reduction. *)
let mk m v lo hi =
  if lo = hi then lo
  else begin
    let found = find_in_chain m v lo hi m.buckets.(bucket m v lo hi) in
    if found >= 0 then found
    else begin
      if m.next_free >= Array.length m.var then grow m;
      let n = m.next_free in
      m.next_free <- n + 1;
      m.var.(n) <- v;
      m.low.(n) <- lo;
      m.high.(n) <- hi;
      link m n;
      n
    end
  end

(* ------------------------------------------------------------------ *)
(* Computed table.                                                     *)
(* ------------------------------------------------------------------ *)

let rec probe m mask f gh i =
  let kf = m.key_f.(i) in
  if kf < 0 || (kf = f && m.key_gh.(i) = gh) then i
  else probe m mask f gh ((i + 1) land mask)

(* The slot holding key (f, gh), or the free slot where it belongs. *)
let slot m f gh =
  let mask = Array.length m.key_f - 1 in
  probe m mask f gh (hash2 f gh land mask)

let store m i f gh r =
  m.key_f.(i) <- f;
  m.key_gh.(i) <- gh;
  m.result.(i) <- r

let grow_computed m =
  let kf = m.key_f and kgh = m.key_gh and res = m.result in
  let cap' = 2 * Array.length kf in
  m.key_f <- Array.make cap' (-1);
  m.key_gh <- Array.make cap' 0;
  m.result <- Array.make cap' 0;
  Array.iteri
    (fun i f -> if f >= 0 then store m (slot m f kgh.(i)) f kgh.(i) res.(i))
    kf

(* Record a key known to be absent. Probes afresh: the recursion that
   produced [r] may have filled or moved the slot seen on lookup. *)
let remember m f gh r =
  if 2 * (m.computed + 1) > Array.length m.key_f then grow_computed m;
  store m (slot m f gh) f gh r;
  m.computed <- m.computed + 1

(* ------------------------------------------------------------------ *)
(* Constructors and ITE.                                               *)
(* ------------------------------------------------------------------ *)

let bdd_true _m = node_true
let bdd_false _m = node_false
let of_bool _m b = if b then node_true else node_false

let var m i =
  assert (i >= 0);
  mk m i node_false node_true

let nvar m i =
  assert (i >= 0);
  mk m i node_true node_false

let is_terminal n = n < 2
let is_true _m n = n = node_true
let is_false _m n = n = node_false
let equal (a : node) b = a = b

exception Limit_exceeded

(* Standard ITE with terminal short-cuts and memoization. [cutoff] is
   the node count past which the call gives up with [Limit_exceeded]:
   [max_int] for an unbounded apply. Terminals carry [terminal_var], so
   the top variable and the cofactors need no terminal test. *)
let rec ite_upto m cutoff f g h =
  if f = node_true then g
  else if f = node_false then h
  else if g = h then g
  else if g = node_true && h = node_false then f
  else begin
    let gh = pack g h in
    let i = slot m f gh in
    if m.key_f.(i) >= 0 then m.result.(i)
    else begin
      let vf = m.var.(f) and vg = m.var.(g) and vh = m.var.(h) in
      let v = if vf <= vg && vf <= vh then vf else if vg <= vh then vg else vh in
      let hi =
        ite_upto m cutoff
          (if vf = v then m.high.(f) else f)
          (if vg = v then m.high.(g) else g)
          (if vh = v then m.high.(h) else h)
      in
      let lo =
        ite_upto m cutoff
          (if vf = v then m.low.(f) else f)
          (if vg = v then m.low.(g) else g)
          (if vh = v then m.low.(h) else h)
      in
      let r = mk m v lo hi in
      remember m f gh r;
      if m.next_free > cutoff then raise Limit_exceeded;
      r
    end
  end

let ite m f g h = ite_upto m max_int f g h

let bnot m f = ite m f node_false node_true
let band m f g = ite m f g node_false
let bor m f g = ite m f node_true g
let bxor m f g = ite m f (bnot m g) g
let bnand m f g = bnot m (band m f g)
let bnor m f g = bnot m (bor m f g)
let bxnor m f g = bnot m (bxor m f g)
let bimply m f g = ite m f g node_true

(* ------------------------------------------------------------------ *)
(* Traversals.                                                         *)
(* ------------------------------------------------------------------ *)

let new_epoch m =
  m.epoch <- m.epoch + 1;
  m.epoch

exception Over_limit

(* Mark the unvisited internal nodes under [n] and add them to [count];
   raise [Over_limit] once the total passes [limit]. *)
let rec count_marked m e limit n count =
  if n < 2 || m.stamp.(n) = e then count
  else begin
    m.stamp.(n) <- e;
    let count = count + 1 in
    if count > limit then raise Over_limit;
    count_marked m e limit m.high.(n) (count_marked m e limit m.low.(n) count)
  end

let size m f = count_marked m (new_epoch m) max_int f 0

let size_within m ~limit f =
  match count_marked m (new_epoch m) limit f 0 with
  | _ -> true
  | exception Over_limit -> false

(* Every node one top-level ITE creates is the result of one of its
   recursive calls, and every such result is the answer or a child of
   the node its caller builds, so it stays reachable from the answer:
   [limit + 1] fresh nodes prove [size > limit] and the call can stop.
   Short of that, the answer may still reach older nodes, so the size
   check runs on it; that walk is itself bounded by [limit]. *)
let ite_within m ~limit f g h =
  let cutoff =
    if limit >= max_int - m.next_free then max_int else m.next_free + max 0 limit
  in
  match ite_upto m cutoff f g h with
  | r -> if size_within m ~limit r then Some r else None
  | exception Limit_exceeded -> None

let support m f =
  let e = new_epoch m in
  let vars = ref [] in
  let rec go n =
    if n >= 2 && m.stamp.(n) <> e then begin
      m.stamp.(n) <- e;
      vars := m.var.(n) :: !vars;
      go m.low.(n);
      go m.high.(n)
    end
  in
  go f;
  List.sort_uniq compare !vars

(* ------------------------------------------------------------------ *)
(* Cofactors and quantification.                                       *)
(* ------------------------------------------------------------------ *)

let rec restrict_tagged m n v value tag =
  if is_terminal n then n
  else begin
    let nv = m.var.(n) in
    if nv > v then n
    else if nv = v then if value then m.high.(n) else m.low.(n)
    else begin
      let i = slot m n tag in
      if m.key_f.(i) >= 0 then m.result.(i)
      else begin
        let lo = restrict_tagged m m.low.(n) v value tag in
        let hi = restrict_tagged m m.high.(n) v value tag in
        let r = mk m nv lo hi in
        remember m n tag r;
        r
      end
    end
  end

let restrict m n ~var:v ~value =
  restrict_tagged m n v value (-1 - ((2 * v) + Bool.to_int value))

let exists m ~var:v f =
  let f0 = restrict m f ~var:v ~value:false in
  let f1 = restrict m f ~var:v ~value:true in
  bor m f0 f1

let forall m ~var:v f =
  let f0 = restrict m f ~var:v ~value:false in
  let f1 = restrict m f ~var:v ~value:true in
  band m f0 f1

let compose m f ~var:v g =
  let f0 = restrict m f ~var:v ~value:false in
  let f1 = restrict m f ~var:v ~value:true in
  ite m g f1 f0

(* ------------------------------------------------------------------ *)
(* Probabilities and evaluation.                                       *)
(* ------------------------------------------------------------------ *)

(* Memo indexed by node, NaN meaning "not priced yet" (a priced node is
   never NaN: [p] must return a probability). Children have smaller
   indices than their parents, so the memo only grows at the root. *)
let probability_fn m ~p =
  let memo = ref [||] in
  let rec go n =
    if n = node_true then 1.
    else if n = node_false then 0.
    else begin
      let pr = !memo.(n) in
      if not (Float.is_nan pr) then pr
      else begin
        let pv = p m.var.(n) in
        assert (pv >= 0. && pv <= 1.);
        let pr = (pv *. go m.high.(n)) +. ((1. -. pv) *. go m.low.(n)) in
        !memo.(n) <- pr;
        pr
      end
    end
  in
  fun f ->
    if f >= Array.length !memo then begin
      let a = Array.make (Array.length m.var) Float.nan in
      Array.blit !memo 0 a 0 (Array.length !memo);
      memo := a
    end;
    go f

let probability m ~p f = probability_fn m ~p f

let sat_count m ~nvars f =
  List.iter
    (fun v ->
      if v >= nvars then invalid_arg "Bdd.sat_count: support exceeds nvars")
    (support m f);
  probability m ~p:(fun _ -> 0.5) f *. (2. ** float_of_int nvars)

let eval m f assignment =
  let rec go n =
    if n = node_true then true
    else if n = node_false then false
    else if assignment m.var.(n) then go m.high.(n)
    else go m.low.(n)
  in
  go f

(* By canonicity every internal node reaches both terminals, so greedily
   avoiding the FALSE terminal finds a satisfying path. *)
let any_sat m f =
  if f = node_false then None
  else begin
    let rec go n acc =
      if n = node_true then List.rev acc
      else if m.low.(n) <> node_false then
        go m.low.(n) ((m.var.(n), false) :: acc)
      else go m.high.(n) ((m.var.(n), true) :: acc)
    in
    Some (go f [])
  end

let of_truth_table m tt =
  let arity = Nano_logic.Truth_table.arity tt in
  (* Shannon expansion from the top variable down; memoized on the
     (variable, sub-table window) pair via direct recursion over
     assignment prefixes. *)
  let rec build v prefix =
    if v = arity then
      of_bool m (Nano_logic.Truth_table.eval tt prefix)
    else begin
      let lo = build (v + 1) prefix in
      let hi = build (v + 1) (prefix lor (1 lsl v)) in
      ite m (var m v) hi lo
    end
  in
  build 0 0

let to_truth_table m ~arity f =
  Nano_logic.Truth_table.create ~arity (fun a ->
      eval m f (fun v -> (a lsr v) land 1 = 1))

let to_dot m ?(name = "bdd") f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" name);
  Buffer.add_string buf "  node0 [label=\"0\", shape=box];\n";
  Buffer.add_string buf "  node1 [label=\"1\", shape=box];\n";
  let e = new_epoch m in
  let rec go n =
    if (not (is_terminal n)) && m.stamp.(n) <> e then begin
      m.stamp.(n) <- e;
      Buffer.add_string buf
        (Printf.sprintf "  node%d [label=\"x%d\"];\n" n m.var.(n));
      Buffer.add_string buf
        (Printf.sprintf "  node%d -> node%d [style=dashed];\n" n m.low.(n));
      Buffer.add_string buf (Printf.sprintf "  node%d -> node%d;\n" n m.high.(n));
      go m.low.(n);
      go m.high.(n)
    end
  in
  go f;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
