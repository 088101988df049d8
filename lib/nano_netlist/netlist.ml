type node = int

type info = { kind : Gate.kind; fanins : node array; name : string option }

type t = {
  net_name : string;
  nodes : info array;
  inputs : node list;
  outputs : (string * node) list;
  input_index : (string, node) Hashtbl.t;
  (* Flat copies of [inputs]/[outputs], precomputed once at [finish]
     time so per-word simulation code never re-traverses the lists. *)
  input_id_arr : node array;
  output_id_arr : node array;
  output_name_arr : string array;
}

let of_arrays_unchecked ~name nodes ~inputs ~output_names ~output_ids =
  let input_index = Hashtbl.create (Array.length inputs) in
  Array.iter
    (fun id ->
      match nodes.(id).name with
      | Some n -> Hashtbl.replace input_index n id
      | None -> ())
    inputs;
  {
    net_name = name;
    nodes;
    inputs = Array.to_list inputs;
    outputs =
      List.combine (Array.to_list output_names) (Array.to_list output_ids);
    input_index;
    input_id_arr = inputs;
    output_id_arr = output_ids;
    output_name_arr = output_names;
  }

(* The packed form: unsigned LEB128 varints and length-prefixed
   strings. The model name; the node count; per node, [code + codes *
   (2 * arity + named)], each fanin as its distance back from the node,
   and the name if it has one; the input ids; the outputs as (id,
   name). A mapped netlist names only its inputs and keeps its fanins
   close, so most nodes take one byte plus one or two per fanin. *)
let pack t =
  let b = Buffer.create ((4 * Array.length t.nodes) + 64) in
  let rec varint v =
    if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else begin
      Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
      varint (v lsr 7)
    end
  in
  let str s =
    varint (String.length s);
    Buffer.add_string b s
  in
  str t.net_name;
  varint (Array.length t.nodes);
  Array.iteri
    (fun id info ->
      let named = if info.name = None then 0 else 1 in
      varint
        (Gate.code info.kind
        + (Gate.codes * ((2 * Array.length info.fanins) + named)));
      Array.iter
        (fun f ->
          if f < 0 || f >= id then
            invalid_arg "Netlist.pack: fanin out of topological order";
          varint (id - f))
        info.fanins;
      Option.iter str info.name)
    t.nodes;
  varint (Array.length t.input_id_arr);
  Array.iter varint t.input_id_arr;
  varint (Array.length t.output_id_arr);
  Array.iteri
    (fun k id ->
      varint id;
      str t.output_name_arr.(k))
    t.output_id_arr;
  Buffer.contents b

let unpack s =
  let fail () = invalid_arg "Netlist.unpack: malformed packed netlist" in
  let len = String.length s in
  let pos = ref 0 in
  let rec varint acc shift =
    if !pos >= len || shift > 56 then fail ();
    let c = Char.code (String.unsafe_get s !pos) in
    incr pos;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else varint acc (shift + 7)
  in
  let varint () = varint 0 0 in
  (* A count of items that take a byte or more each. *)
  let length () =
    let n = varint () in
    if n > len - !pos then fail ();
    n
  in
  let str () =
    let n = length () in
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  let net_name = str () in
  let count = length () in
  let id_below () =
    let id = varint () in
    if id >= count then fail ();
    id
  in
  let nodes = Array.make count { kind = Gate.Input; fanins = [||]; name = None } in
  for id = 0 to count - 1 do
    let head = varint () in
    let rest = head / Gate.codes in
    let fanins =
      Array.init (rest / 2) (fun _ ->
          let d = varint () in
          if d < 1 || d > id then fail ();
          id - d)
    in
    let name = if rest land 1 = 1 then Some (str ()) else None in
    nodes.(id) <- { kind = Gate.of_code (head mod Gate.codes); fanins; name }
  done;
  let inputs = Array.init (length ()) (fun _ -> id_below ()) in
  let outputs =
    Array.init (length ()) (fun _ ->
        let id = id_below () in
        (id, str ()))
  in
  if !pos <> len then fail ();
  of_arrays_unchecked ~name:net_name nodes ~inputs
    ~output_names:(Array.map snd outputs)
    ~output_ids:(Array.map fst outputs)

module Builder = struct
  type builder = {
    mutable b_name : string;
    mutable rev_nodes : info list;
    mutable count : int;
    mutable b_inputs : node list; (* reversed *)
    mutable b_outputs : (string * node) list; (* reversed *)
    mutable const0 : node option;
    mutable const1 : node option;
    mutable out_names : (string, unit) Hashtbl.t;
  }

  type t = builder

  let create ?(name = "netlist") () =
    {
      b_name = name;
      rev_nodes = [];
      count = 0;
      b_inputs = [];
      b_outputs = [];
      const0 = None;
      const1 = None;
      out_names = Hashtbl.create 16;
    }

  let push b info =
    b.rev_nodes <- info :: b.rev_nodes;
    let id = b.count in
    b.count <- id + 1;
    id

  let input b name =
    let id = push b { kind = Gate.Input; fanins = [||]; name = Some name } in
    b.b_inputs <- id :: b.b_inputs;
    id

  let const b value =
    let cached = if value then b.const1 else b.const0 in
    match cached with
    | Some id -> id
    | None ->
      let id = push b { kind = Gate.Const value; fanins = [||]; name = None } in
      if value then b.const1 <- Some id else b.const0 <- Some id;
      id

  let add ?name b kind fanin_list =
    (match kind with
    | Gate.Input -> invalid_arg "Netlist.Builder.add: use input for Input"
    | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
    | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Majority -> ());
    let fanins = Array.of_list fanin_list in
    if not (Gate.arity_ok kind (Array.length fanins)) then
      invalid_arg
        (Printf.sprintf "Netlist.Builder.add: bad arity %d for %s"
           (Array.length fanins) (Gate.name kind));
    Array.iter
      (fun f ->
        if f < 0 || f >= b.count then
          invalid_arg "Netlist.Builder.add: fanin id out of range")
      fanins;
    push b { kind; fanins; name }

  let not_ b x = add b Gate.Not [ x ]
  let and2 b x y = add b Gate.And [ x; y ]
  let or2 b x y = add b Gate.Or [ x; y ]
  let xor2 b x y = add b Gate.Xor [ x; y ]
  let nand2 b x y = add b Gate.Nand [ x; y ]
  let nor2 b x y = add b Gate.Nor [ x; y ]
  let xnor2 b x y = add b Gate.Xnor [ x; y ]
  let maj3 b x y z = add b Gate.Majority [ x; y; z ]

  let reduce b kind nodes =
    let pair x y =
      match kind with
      | Gate.And -> and2 b x y
      | Gate.Or -> or2 b x y
      | Gate.Xor -> xor2 b x y
      | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Nand
      | Gate.Nor | Gate.Xnor | Gate.Majority ->
        invalid_arg "Netlist.Builder.reduce: kind must be And, Or or Xor"
    in
    let rec round = function
      | [] -> invalid_arg "Netlist.Builder.reduce: empty list"
      | [ x ] -> x
      | xs ->
        let rec pairs = function
          | [] -> []
          | [ x ] -> [ x ]
          | x :: y :: rest -> pair x y :: pairs rest
        in
        round (pairs xs)
    in
    round nodes

  let output b name node =
    if Hashtbl.mem b.out_names name then
      invalid_arg (Printf.sprintf "Netlist.Builder.output: duplicate %s" name);
    if node < 0 || node >= b.count then
      invalid_arg "Netlist.Builder.output: node id out of range";
    Hashtbl.add b.out_names name ();
    b.b_outputs <- (name, node) :: b.b_outputs

  let finish b =
    if b.b_outputs = [] then
      invalid_arg "Netlist.Builder.finish: netlist has no outputs";
    let outputs = Array.of_list (List.rev b.b_outputs) in
    of_arrays_unchecked ~name:b.b_name
      (Array.of_list (List.rev b.rev_nodes))
      ~inputs:(Array.of_list (List.rev b.b_inputs))
      ~output_names:(Array.map fst outputs)
      ~output_ids:(Array.map snd outputs)
end

let name t = t.net_name
let node_count t = Array.length t.nodes
let info t n = t.nodes.(n)
let kind t n = t.nodes.(n).kind
let fanins t n = t.nodes.(n).fanins
let inputs t = t.inputs
let outputs t = t.outputs
let input_ids t = t.input_id_arr
let output_ids t = t.output_id_arr
let output_names t = t.output_name_arr
let input_count t = Array.length t.input_id_arr
let output_count t = Array.length t.output_id_arr

let input_names t =
  List.map
    (fun id ->
      match t.nodes.(id).name with
      | Some n -> n
      | None -> Printf.sprintf "_in%d" id)
    t.inputs

let find_input t name = Hashtbl.find t.input_index name

let iter t f = Array.iteri f t.nodes

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun n info -> acc := f !acc n info) t.nodes;
  !acc

let fanout_counts t =
  let counts = Array.make (node_count t) 0 in
  Array.iter
    (fun info -> Array.iter (fun f -> counts.(f) <- counts.(f) + 1) info.fanins)
    t.nodes;
  counts

let levels t =
  let lv = Array.make (node_count t) 0 in
  Array.iteri
    (fun n info ->
      if not (Gate.is_source info.kind) then begin
        let m = Array.fold_left (fun acc f -> max acc lv.(f)) 0 info.fanins in
        lv.(n) <- m + 1
      end)
    t.nodes;
  lv

let depth t =
  let lv = levels t in
  List.fold_left (fun acc (_, n) -> max acc lv.(n)) 0 t.outputs

let size t =
  Array.fold_left
    (fun acc info -> if Gate.is_logic info.kind then acc + 1 else acc)
    0 t.nodes

let average_fanin t =
  let gates, pins =
    Array.fold_left
      (fun (g, p) info ->
        if Gate.is_logic info.kind then (g + 1, p + Array.length info.fanins)
        else (g, p))
      (0, 0) t.nodes
  in
  if gates = 0 then 0. else float_of_int pins /. float_of_int gates

let max_fanin t =
  Array.fold_left
    (fun acc info ->
      if Gate.is_source info.kind then acc
      else max acc (Array.length info.fanins))
    0 t.nodes

let transitive_fanin t roots =
  let mark = Array.make (node_count t) false in
  let rec go n =
    if not mark.(n) then begin
      mark.(n) <- true;
      Array.iter go t.nodes.(n).fanins
    end
  in
  List.iter go roots;
  fun n -> mark.(n)

let eval_nodes t input_values =
  let n_in = List.length t.inputs in
  if Array.length input_values <> n_in then
    invalid_arg "Netlist.eval_nodes: wrong number of input values";
  let values = Array.make (node_count t) false in
  List.iteri (fun i id -> values.(id) <- input_values.(i)) t.inputs;
  Array.iteri
    (fun n info ->
      match info.kind with
      | Gate.Input -> ()
      | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
      | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Majority ->
        values.(n) <- Gate.eval info.kind (Array.map (fun f -> values.(f)) info.fanins))
    t.nodes;
  values

let eval_words t ~input_words ~values ~after =
  if Array.length input_words <> Array.length t.input_id_arr then
    invalid_arg "Netlist.eval_words: wrong number of input words";
  if Array.length values <> Array.length t.nodes then
    invalid_arg "Netlist.eval_words: wrong values length";
  Array.iteri (fun i id -> values.(id) <- input_words.(i)) t.input_id_arr;
  (* One fanin buffer per arity that occurs, made at its first visit
     and refilled at the next: a gate reads its fanins' words without
     allocating an array of its own. *)
  let scratch = Array.make (max_fanin t + 1) [||] in
  for id = 0 to Array.length t.nodes - 1 do
    let info = t.nodes.(id) in
    let clean =
      match info.kind with
      | Gate.Input -> values.(id)
      | kind ->
        let fanins = info.fanins in
        let arity = Array.length fanins in
        if Array.length scratch.(arity) <> arity then
          scratch.(arity) <- Array.make arity 0L;
        let words = scratch.(arity) in
        for k = 0 to arity - 1 do
          words.(k) <- values.(fanins.(k))
        done;
        Gate.eval_word kind words
    in
    values.(id) <- after id clean
  done

let eval t bindings =
  let input_values =
    Array.of_list
      (List.map
         (fun id ->
           let nm =
             match t.nodes.(id).name with
             | Some n -> n
             | None -> invalid_arg "Netlist.eval: unnamed input"
           in
           match List.assoc_opt nm bindings with
           | Some v -> v
           | None ->
             invalid_arg (Printf.sprintf "Netlist.eval: missing input %s" nm))
         t.inputs)
  in
  let values = eval_nodes t input_values in
  List.map (fun (nm, n) -> (nm, values.(n))) t.outputs

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = node_count t in
  let rec check_nodes i =
    if i >= n then Ok ()
    else begin
      let info = t.nodes.(i) in
      if not (Gate.arity_ok info.kind (Array.length info.fanins)) then
        err "node %d: bad arity %d for %s" i (Array.length info.fanins)
          (Gate.name info.kind)
      else begin
        let bad =
          Array.exists (fun f -> f < 0 || f >= i) info.fanins
        in
        if bad then err "node %d: fanin out of topological order" i
        else check_nodes (i + 1)
      end
    end
  in
  match check_nodes 0 with
  | Error _ as e -> e
  | Ok () ->
    if t.outputs = [] then err "netlist has no outputs"
    else begin
      let bad_out =
        List.find_opt (fun (_, o) -> o < 0 || o >= n) t.outputs
      in
      match bad_out with
      | Some (nm, _) -> err "output %s: dangling node reference" nm
      | None -> Ok ()
    end

(* Canonical serialization behind [digest]. Versioned so that any
   intentional format change shows up as a new prefix (and therefore a
   new digest) rather than a silent collision with the old scheme. *)
let digest_serialization t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "nanobound-netlist-v1\n";
  Array.iter
    (fun info ->
      Buffer.add_string buf (Gate.name info.kind);
      Array.iter
        (fun f ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int f))
        info.fanins;
      Buffer.add_char buf '\n')
    t.nodes;
  List.iter
    (fun id ->
      Buffer.add_string buf "i ";
      (match t.nodes.(id).name with
      | Some nm -> Buffer.add_string buf nm
      | None -> Buffer.add_string buf (string_of_int id));
      Buffer.add_char buf '\n')
    t.inputs;
  List.iter
    (fun (nm, id) ->
      Buffer.add_string buf
        (Printf.sprintf "o %s %d\n" nm id))
    t.outputs;
  Buffer.contents buf

let digest t = Digest.to_hex (Digest.string (digest_serialization t))

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  rankdir=LR;\n" t.net_name);
  Array.iteri
    (fun n info ->
      let label =
        match info.name with
        | Some nm -> Printf.sprintf "%s\\n%s" (Gate.name info.kind) nm
        | None -> Printf.sprintf "%s#%d" (Gate.name info.kind) n
      in
      let shape =
        match info.kind with
        | Gate.Input -> "invtriangle"
        | Gate.Const _ -> "box"
        | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
        | Gate.Xor | Gate.Xnor | Gate.Majority -> "ellipse"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" n label shape);
      Array.iter
        (fun f -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" f n))
        info.fanins)
    t.nodes;
  List.iter
    (fun (nm, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  out_%s [label=\"%s\", shape=triangle];\n  n%d -> out_%s;\n"
           nm nm n nm))
    t.outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
