module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

(* DAG node tags are [Gate.code]s. *)
let kind_of_tag = Array.init Gate.codes Gate.of_code
let name_of_tag = Array.map Gate.name kind_of_tag
let t_input = Gate.code Gate.Input
let t_const v = Gate.code (Gate.Const v)
let t_not = Gate.code Gate.Not
let t_and = Gate.code Gate.And
let t_or = Gate.code Gate.Or
let t_nand = Gate.code Gate.Nand
let t_nor = Gate.code Gate.Nor
let t_xor = Gate.code Gate.Xor
let t_xnor = Gate.code Gate.Xnor
let t_majority = Gate.code Gate.Majority

(* A rebuilt value ("rep"): a node of the output DAG (>= 0), or a known
   constant. *)
let c_false = -1
let c_true = -2
let const_rep v = if v then c_true else c_false

type scratch = {
  dag : Hashcons.t;  (* the output DAG, hash-consed on (tag, fanin ids) *)
  mutable neg : int array;
      (* per DAG node: its complement, linked both ways so that
         [x & ~x = 0] and [x ^ ~x = 1] can fire; -1 when none *)
  mutable marks : int array;  (* per DAG node, stamped with [epoch] *)
  mutable remap : int array;  (* per DAG node: its id after the sweep *)
  mutable epoch : int;
  mutable ops : int array;  (* reps of the fanins of the gate being rebuilt *)
  mutable key : int array;  (* operands handed to [Hashcons.share] *)
  mutable inputs : int array;  (* DAG ids of the inputs, declaration order *)
  mutable names : string array;  (* their names *)
  mutable ninputs : int;
  (* Per source-netlist node. *)
  mutable reps : int array;
  mutable seen : int array;  (* stamped with [epoch] *)
  mutable stack : int array;
  mutable stack_next : int array;
  mutable order : int array;
  buf : Buffer.t;
}

let scratch () =
  {
    dag = Hashcons.create ();
    neg = [||];
    marks = [||];
    remap = [||];
    epoch = 0;
    ops = [||];
    key = [||];
    inputs = [||];
    names = [||];
    ninputs = 0;
    reps = [||];
    seen = [||];
    stack = [||];
    stack_next = [||];
    order = [||];
    buf = Buffer.create 4096;
  }

let room = Hashcons.room

(* Per-source-node state for a netlist of [n] nodes. *)
let sources s n =
  s.reps <- room s.reps n;
  s.seen <- room s.seen n;
  s.inputs <- room s.inputs n;
  if Array.length s.names < n then
    s.names <- Array.make (Array.length s.inputs) ""

(* Empty the DAG for a run that rebuilds [nodes] source nodes with
   [operands] fanins in all, none wider than [widest]. Each rebuilt node
   makes at most one DAG node, and a run at most one constant node per
   value, with at most as many fanins as the source node had. *)
let start s ~nodes ~operands ~widest =
  let cap = nodes + 2 in
  Hashcons.reset s.dag ~nodes:cap ~operands;
  s.neg <- room s.neg cap;
  s.marks <- room s.marks cap;
  s.remap <- room s.remap cap;
  s.ops <- room s.ops widest;
  s.key <- room s.key widest;
  s.ninputs <- 0

let start_netlist s netlist =
  let n = Netlist.node_count netlist in
  let operands = ref 0 and widest = ref 1 in
  for id = 0 to n - 1 do
    let a = Array.length (Netlist.fanins netlist id) in
    operands := !operands + a;
    if a > !widest then widest := a
  done;
  sources s n;
  start s ~nodes:n ~operands:!operands ~widest:!widest

let input s name =
  let id = Hashcons.add s.dag t_input s.key 0 in
  s.neg.(id) <- -1;
  s.inputs.(s.ninputs) <- id;
  s.names.(s.ninputs) <- name;
  s.ninputs <- s.ninputs + 1;
  id

(* The shared node for [tag] over [s.key.(0 .. len - 1)]. *)
let node s tag len =
  let fresh = Hashcons.count s.dag in
  let id = Hashcons.share s.dag tag s.key len in
  if id = fresh then s.neg.(id) <- -1;
  id

let const_node s v = node s (t_const v) 0
let materialize s r = if r >= 0 then r else const_node s (r = c_true)

let dedup key len =
  if len = 0 then 0
  else begin
    let w = ref 1 in
    for i = 1 to len - 1 do
      if key.(i) <> key.(!w - 1) then begin
        key.(!w) <- key.(i);
        incr w
      end
    done;
    !w
  end

(* Stamp [s.key.(0 .. len - 1)] in [marks]; returns the stamp. *)
let mark_key s len =
  s.epoch <- s.epoch + 1;
  for i = 0 to len - 1 do
    s.marks.(s.key.(i)) <- s.epoch
  done;
  s.epoch

let mk_not s r =
  if r < 0 then const_rep (r = c_false)
  else if s.neg.(r) >= 0 then s.neg.(r)
  else begin
    s.key.(0) <- r;
    let y = node s t_not 1 in
    s.neg.(r) <- y;
    s.neg.(y) <- r;
    y
  end

(* AND ([absorbing] = false) or OR ([absorbing] = true) over
   [s.ops.(0 .. n - 1)], inverted when [negated]. *)
let mk_and_or s ~absorbing ~negated n =
  let out v = const_rep (v <> negated) in
  let absorbed = ref false and len = ref 0 in
  for i = 0 to n - 1 do
    let r = s.ops.(i) in
    if r >= 0 then begin
      s.key.(!len) <- r;
      incr len
    end
    else if (r = c_true) = absorbing then absorbed := true
  done;
  if !absorbed then out absorbing
  else begin
    Hashcons.sort s.key !len;
    let len = dedup s.key !len in
    let stamp = mark_key s len in
    let rec conflict i =
      i < len
      && (let y = s.neg.(s.key.(i)) in
          (y >= 0 && s.marks.(y) = stamp) || conflict (i + 1))
    in
    if conflict 0 then out absorbing
    else if len = 0 then out (not absorbing)
    else if len = 1 then (if negated then mk_not s s.key.(0) else s.key.(0))
    else
      node s
        (match (absorbing, negated) with
        | false, false -> t_and
        | false, true -> t_nand
        | true, false -> t_or
        | true, true -> t_nor)
        len
  end

let mk_xor s ~negated n =
  let polarity = ref negated and len = ref 0 in
  for i = 0 to n - 1 do
    let r = s.ops.(i) in
    if r >= 0 then begin
      s.key.(!len) <- r;
      incr len
    end
    else if r = c_true then polarity := not !polarity
  done;
  Hashcons.sort s.key !len;
  (* x ^ x = 0: an equal pair drops out. *)
  let kept = ref 0 and i = ref 0 in
  while !i < !len do
    if !i + 1 < !len && s.key.(!i) = s.key.(!i + 1) then i := !i + 2
    else begin
      s.key.(!kept) <- s.key.(!i);
      incr kept;
      incr i
    end
  done;
  (* x ^ ~x = 1: a complementary pair drops out and flips the
     polarity. *)
  let stamp = mark_key s !kept in
  let len = ref 0 in
  for i = 0 to !kept - 1 do
    let x = s.key.(i) in
    if s.marks.(x) = stamp then begin
      let y = s.neg.(x) in
      if y >= 0 && s.marks.(y) = stamp then begin
        s.marks.(x) <- -1;
        s.marks.(y) <- -1;
        polarity := not !polarity
      end
      else begin
        s.key.(!len) <- x;
        incr len
      end
    end
  done;
  match !len with
  | 0 -> const_rep !polarity
  | 1 -> if !polarity then mk_not s s.key.(0) else s.key.(0)
  | len -> node s (if !polarity then t_xnor else t_xor) len

let mk_majority s n =
  let ones = ref 0 and consts = ref 0 in
  for i = 0 to n - 1 do
    let r = s.ops.(i) in
    if r < 0 then begin
      incr consts;
      if r = c_true then incr ones
    end
  done;
  if !consts = n then const_rep (!ones > n / 2)
  else if n = 3 then begin
    (* The node fanins in order, and the constant if there is one. *)
    let nodes = Array.make 3 0 and m = ref 0 and c = ref c_false in
    for i = 0 to 2 do
      let r = s.ops.(i) in
      if r >= 0 then begin
        nodes.(!m) <- r;
        incr m
      end
      else c := r
    done;
    match !consts with
    | 1 ->
      s.ops.(0) <- nodes.(0);
      s.ops.(1) <- nodes.(1);
      mk_and_or s ~absorbing:(!c = c_true) ~negated:false 2
    | 2 ->
      if !ones = 2 then c_true else if !ones = 0 then c_false else nodes.(0)
    | _ ->
      let x = nodes.(0) and y = nodes.(1) and z = nodes.(2) in
      let complements a b = s.neg.(a) = b in
      if x = y || complements x y then (if x = y then x else z)
      else if y = z || complements y z then (if y = z then y else x)
      else if x = z || complements x z then (if x = z then x else y)
      else begin
        s.key.(0) <- x;
        s.key.(1) <- y;
        s.key.(2) <- z;
        Hashcons.sort s.key 3;
        node s t_majority 3
      end
  end
  else begin
    (* Wider majorities fold only when fully constant (above); otherwise
       the gate stays, its constants made explicit nodes. *)
    let len = ref 0 in
    for i = 0 to n - 1 do
      let r = s.ops.(i) in
      if r < 0 then begin
        s.key.(!len) <- const_node s (r = c_true);
        incr len
      end
    done;
    for i = 0 to n - 1 do
      let r = s.ops.(i) in
      if r >= 0 then begin
        s.key.(!len) <- r;
        incr len
      end
    done;
    Hashcons.sort s.key n;
    node s t_majority n
  end

(* The rep of a [kind] gate over [s.ops.(0 .. n - 1)]. *)
let mk_gate s kind n =
  match kind with
  | Gate.Input -> invalid_arg "Strash.mk_gate: Input"
  | Gate.Const v -> const_rep v
  | Gate.Buf -> s.ops.(0)
  | Gate.Not -> mk_not s s.ops.(0)
  | Gate.And -> mk_and_or s ~absorbing:false ~negated:false n
  | Gate.Nand -> mk_and_or s ~absorbing:false ~negated:true n
  | Gate.Or -> mk_and_or s ~absorbing:true ~negated:false n
  | Gate.Nor -> mk_and_or s ~absorbing:true ~negated:true n
  | Gate.Xor -> mk_xor s ~negated:false n
  | Gate.Xnor -> mk_xor s ~negated:true n
  | Gate.Majority -> mk_majority s n

let rebuild_node s netlist id =
  let info = Netlist.info netlist id in
  let f = info.Netlist.fanins in
  for j = 0 to Array.length f - 1 do
    s.ops.(j) <- s.reps.(f.(j))
  done;
  s.reps.(id) <- mk_gate s info.Netlist.kind (Array.length f)

(* The sweep, which drops what folding orphaned: mark what [outputs]
   reach in one reverse pass (the DAG is in creation order), then number
   the inputs in declaration order and the marked nodes after them in
   creation order. Leaves the marks stamped with [s.epoch]. *)
let compact s outputs =
  let d = s.dag in
  s.epoch <- s.epoch + 1;
  let live = s.epoch in
  Array.iter (fun o -> s.marks.(o) <- live) outputs;
  for i = Hashcons.count d - 1 downto 0 do
    if s.marks.(i) = live then
      for j = 0 to Hashcons.arity d i - 1 do
        s.marks.(Hashcons.operand d i j) <- live
      done
  done;
  for j = 0 to s.ninputs - 1 do
    s.remap.(s.inputs.(j)) <- j
  done;
  let next = ref s.ninputs in
  for i = 0 to Hashcons.count d - 1 do
    if s.marks.(i) = live && Hashcons.tag d i <> t_input then begin
      s.remap.(i) <- !next;
      incr next
    end
  done;
  !next

let swept_gate s i =
  s.marks.(i) = s.epoch && Hashcons.tag s.dag i <> t_input

let to_netlist s ~name ~output_names outputs =
  let d = s.dag in
  let total = compact s outputs in
  let nodes =
    Array.make total { Netlist.kind = Gate.Input; fanins = [||]; name = None }
  in
  for j = 0 to s.ninputs - 1 do
    nodes.(j) <-
      { Netlist.kind = Gate.Input; fanins = [||]; name = Some s.names.(j) }
  done;
  for i = 0 to Hashcons.count d - 1 do
    if swept_gate s i then
      nodes.(s.remap.(i)) <-
        {
          Netlist.kind = kind_of_tag.(Hashcons.tag d i);
          fanins =
            Array.init (Hashcons.arity d i) (fun j ->
                s.remap.(Hashcons.operand d i j));
          name = None;
        }
  done;
  Netlist.of_arrays_unchecked ~name nodes
    ~inputs:(Array.init s.ninputs Fun.id)
    ~output_names
    ~output_ids:(Array.map (fun o -> s.remap.(o)) outputs)

(* [Netlist.digest] of what [to_netlist] would return, written from
   the arrays in the same v1 serialization. *)
let to_digest s ~output_names outputs =
  let d = s.dag in
  ignore (compact s outputs);
  let b = s.buf in
  let rec add_int n =
    if n >= 10 then add_int (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  in
  Buffer.clear b;
  Buffer.add_string b "nanobound-netlist-v1\n";
  for _ = 1 to s.ninputs do
    Buffer.add_string b "input\n"
  done;
  for i = 0 to Hashcons.count d - 1 do
    if swept_gate s i then begin
      Buffer.add_string b name_of_tag.(Hashcons.tag d i);
      for j = 0 to Hashcons.arity d i - 1 do
        Buffer.add_char b ' ';
        add_int s.remap.(Hashcons.operand d i j)
      done;
      Buffer.add_char b '\n'
    end
  done;
  for j = 0 to s.ninputs - 1 do
    Buffer.add_string b "i ";
    Buffer.add_string b s.names.(j);
    Buffer.add_char b '\n'
  done;
  Array.iteri
    (fun k o ->
      Buffer.add_string b "o ";
      Buffer.add_string b output_names.(k);
      Buffer.add_char b ' ';
      add_int s.remap.(o);
      Buffer.add_char b '\n')
    outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let input_name netlist id =
  match (Netlist.info netlist id).Netlist.name with
  | Some n -> n
  | None -> Printf.sprintf "_in%d" id

(* Rebuild the output cones of [netlist] into the DAG; returns the
   output nodes. *)
let rebuild s netlist =
  start_netlist s netlist;
  let n = Netlist.node_count netlist in
  s.epoch <- s.epoch + 1;
  let live = s.epoch in
  Array.iter (fun o -> s.seen.(o) <- live) (Netlist.output_ids netlist);
  for id = n - 1 downto 0 do
    if s.seen.(id) = live then
      Array.iter (fun f -> s.seen.(f) <- live) (Netlist.fanins netlist id)
  done;
  (* Inputs are always declared, in order, to preserve the interface. *)
  Array.iter
    (fun id -> s.reps.(id) <- input s (input_name netlist id))
    (Netlist.input_ids netlist);
  for id = 0 to n - 1 do
    match Netlist.kind netlist id with
    | Gate.Input -> ()
    | _ -> if s.seen.(id) = live then rebuild_node s netlist id
  done;
  Array.map (fun o -> materialize s s.reps.(o)) (Netlist.output_ids netlist)

let run netlist =
  let s = scratch () in
  let outputs = rebuild s netlist in
  to_netlist s ~name:(Netlist.name netlist)
    ~output_names:(Array.copy (Netlist.output_names netlist))
    outputs

let digest netlist =
  let s = scratch () in
  let outputs = rebuild s netlist in
  to_digest s ~output_names:(Netlist.output_names netlist) outputs

let sweep netlist =
  let s = scratch () in
  start_netlist s netlist;
  Netlist.iter netlist (fun _ info ->
      let f = info.Netlist.fanins in
      Array.blit f 0 s.key 0 (Array.length f);
      ignore
        (Hashcons.add s.dag (Gate.code info.Netlist.kind) s.key
           (Array.length f)));
  Array.iter
    (fun id ->
      s.inputs.(s.ninputs) <- id;
      s.names.(s.ninputs) <- input_name netlist id;
      s.ninputs <- s.ninputs + 1)
    (Netlist.input_ids netlist);
  to_netlist s ~name:(Netlist.name netlist)
    ~output_names:(Array.copy (Netlist.output_names netlist))
    (Netlist.output_ids netlist)

let cone_digest s netlist root =
  let n = Netlist.node_count netlist in
  sources s n;
  s.stack <- room s.stack n;
  s.stack_next <- room s.stack_next n;
  s.order <- room s.order n;
  (* Post-order DFS from [root], fanins in order. *)
  s.epoch <- s.epoch + 1;
  let seen = s.epoch in
  let len = ref 0 and top = ref 1 and operands = ref 0 and widest = ref 1 in
  s.seen.(root) <- seen;
  s.stack.(0) <- root;
  s.stack_next.(0) <- 0;
  while !top > 0 do
    let v = s.stack.(!top - 1) in
    let f = Netlist.fanins netlist v in
    let j = s.stack_next.(!top - 1) in
    if j < Array.length f then begin
      s.stack_next.(!top - 1) <- j + 1;
      let u = f.(j) in
      if s.seen.(u) <> seen then begin
        s.seen.(u) <- seen;
        s.stack.(!top) <- u;
        s.stack_next.(!top) <- 0;
        incr top
      end
    end
    else begin
      decr top;
      s.order.(!len) <- v;
      incr len;
      operands := !operands + Array.length f;
      if Array.length f > !widest then widest := Array.length f
    end
  done;
  start s ~nodes:!len ~operands:!operands ~widest:!widest;
  (* The cone's inputs in discovery order, then its gates in post-order:
     the node order of the cone copied out as a netlist. *)
  for k = 0 to !len - 1 do
    let v = s.order.(k) in
    match Netlist.info netlist v with
    | { Netlist.kind = Gate.Input; name; _ } ->
      s.reps.(v) <-
        input s
          (match name with Some name -> name | None -> Printf.sprintf "n%d" v)
    | _ -> ()
  done;
  for k = 0 to !len - 1 do
    let v = s.order.(k) in
    match Netlist.kind netlist v with
    | Gate.Input -> ()
    | _ -> rebuild_node s netlist v
  done;
  to_digest s ~output_names:[| "cone" |] [| materialize s s.reps.(root) |]
