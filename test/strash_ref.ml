(* The structural-hashing engine as it stood before the flat-array
   rewrite, kept verbatim as the reference that test_strash compares
   [Nano_synth.Strash] against node for node. *)

module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

(* A rebuilt value is either a known constant or a node in the new
   netlist. *)
type rep = C of bool | N of Netlist.node

type ctx = {
  b : B.t;
  table : (string * int list, Netlist.node) Hashtbl.t;
  (* Bidirectional complement map: links [x] and [Not x] so identities
     like [x & ~x = 0] and [x ^ ~x = 1] can fire. *)
  neg : (Netlist.node, Netlist.node) Hashtbl.t;
}

let hashcons ctx kind fanins =
  let key = (Gate.name kind, fanins) in
  match Hashtbl.find_opt ctx.table key with
  | Some n -> n
  | None ->
    let n = B.add ctx.b kind fanins in
    Hashtbl.add ctx.table key n;
    n

let mk_not ctx = function
  | C v -> C (not v)
  | N x -> begin
    match Hashtbl.find_opt ctx.neg x with
    | Some y -> N y
    | None ->
      let y = hashcons ctx Gate.Not [ x ] in
      Hashtbl.replace ctx.neg x y;
      Hashtbl.replace ctx.neg y x;
      N y
  end

let complements ctx x y =
  match Hashtbl.find_opt ctx.neg x with
  | Some z -> z = y
  | None -> false

(* Sorted, deduplicated node list; detects complementary pairs. *)
let prepare_symmetric ctx nodes =
  let sorted = List.sort_uniq compare nodes in
  let rec has_conflict = function
    | [] -> false
    | x :: rest ->
      List.exists (fun y -> complements ctx x y) rest || has_conflict rest
  in
  (sorted, has_conflict sorted)

let mk_and_like ctx ~negated reps =
  let out v = if negated then C (not v) else C v in
  if List.exists (function C false -> true | C true | N _ -> false) reps then
    out false
  else begin
    let nodes =
      List.filter_map (function C _ -> None | N x -> Some x) reps
    in
    let nodes, conflict = prepare_symmetric ctx nodes in
    if conflict then out false
    else
      match nodes with
      | [] -> out true
      | [ x ] -> if negated then mk_not ctx (N x) else N x
      | xs -> N (hashcons ctx (if negated then Gate.Nand else Gate.And) xs)
  end

let mk_or_like ctx ~negated reps =
  let out v = if negated then C (not v) else C v in
  if List.exists (function C true -> true | C false | N _ -> false) reps then
    out true
  else begin
    let nodes =
      List.filter_map (function C _ -> None | N x -> Some x) reps
    in
    let nodes, conflict = prepare_symmetric ctx nodes in
    if conflict then out true
    else
      match nodes with
      | [] -> out false
      | [ x ] -> if negated then mk_not ctx (N x) else N x
      | xs -> N (hashcons ctx (if negated then Gate.Nor else Gate.Or) xs)
  end

let mk_xor_like ctx ~negated reps =
  let polarity = ref negated in
  let nodes = ref [] in
  List.iter
    (function
      | C true -> polarity := not !polarity
      | C false -> ()
      | N x -> nodes := x :: !nodes)
    reps;
  (* Remove equal pairs (x ^ x = 0) and complementary pairs
     (x ^ ~x = 1, flipping polarity). *)
  let sorted = List.sort compare !nodes in
  let rec drop_equal = function
    | x :: y :: rest when x = y -> drop_equal rest
    | x :: rest -> x :: drop_equal rest
    | [] -> []
  in
  let without_equal = drop_equal sorted in
  (* Remove the first element matching [pred], if any. *)
  let rec remove_first pred = function
    | [] -> None
    | y :: rest ->
      if pred y then Some rest
      else Option.map (fun r -> y :: r) (remove_first pred rest)
  in
  let rec drop_complements acc = function
    | [] -> List.rev acc
    | x :: rest ->
      (match remove_first (fun y -> complements ctx x y) rest with
      | Some rest' ->
        polarity := not !polarity;
        drop_complements acc rest'
      | None -> drop_complements (x :: acc) rest)
  in
  let final = drop_complements [] without_equal in
  match final with
  | [] -> C !polarity
  | [ x ] -> if !polarity then mk_not ctx (N x) else N x
  | xs ->
    N (hashcons ctx (if !polarity then Gate.Xnor else Gate.Xor) (List.sort compare xs))

let mk_majority ctx reps =
  let n = List.length reps in
  let consts, nodes =
    List.partition_map
      (function C v -> Left v | N x -> Right x)
      reps
  in
  if nodes = [] then begin
    let ones = List.length (List.filter (fun v -> v) consts) in
    C (ones > n / 2)
  end
  else if n = 3 then begin
    match consts, nodes with
    | [ true ], [ x; y ] -> mk_or_like ctx ~negated:false [ N x; N y ]
    | [ false ], [ x; y ] -> mk_and_like ctx ~negated:false [ N x; N y ]
    | [ true; true ], [ _ ] -> C true
    | [ false; false ], [ _ ] -> C false
    | [ true; false ], [ x ] | [ false; true ], [ x ] -> N x
    | [], [ x; y; z ] ->
      if x = y || complements ctx x y then
        if x = y then N x else N z
      else if y = z || complements ctx y z then
        if y = z then N y else N x
      else if x = z || complements ctx x z then
        if x = z then N x else N y
      else N (hashcons ctx Gate.Majority (List.sort compare [ x; y; z ]))
    | _ -> assert false
  end
  else begin
    (* Wider majorities: only fold when fully constant (above); keep the
       gate otherwise, with constants preserved as explicit nodes. *)
    let const_nodes = List.map (fun v -> B.const ctx.b v) consts in
    N (hashcons ctx Gate.Majority (List.sort compare (const_nodes @ nodes)))
  end

let mk_gate ctx kind reps =
  match kind with
  | Gate.Input -> invalid_arg "Strash.mk_gate: Input"
  | Gate.Const v -> C v
  | Gate.Buf -> List.nth reps 0
  | Gate.Not -> mk_not ctx (List.nth reps 0)
  | Gate.And -> mk_and_like ctx ~negated:false reps
  | Gate.Nand -> mk_and_like ctx ~negated:true reps
  | Gate.Or -> mk_or_like ctx ~negated:false reps
  | Gate.Nor -> mk_or_like ctx ~negated:true reps
  | Gate.Xor -> mk_xor_like ctx ~negated:false reps
  | Gate.Xnor -> mk_xor_like ctx ~negated:true reps
  | Gate.Majority -> mk_majority ctx reps

(* Copy keeping only the output cones (plus all primary inputs); run as
   a final pass because folding can orphan gates built eagerly. *)
let sweep netlist =
  let b = B.create ~name:(Netlist.name netlist) () in
  let keep =
    Netlist.transitive_fanin netlist (List.map snd (Netlist.outputs netlist))
  in
  let map = Array.make (Netlist.node_count netlist) (-1) in
  List.iter
    (fun id ->
      let name =
        match (Netlist.info netlist id).Netlist.name with
        | Some n -> n
        | None -> Printf.sprintf "_in%d" id
      in
      map.(id) <- B.input b name)
    (Netlist.inputs netlist);
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind ->
        if keep id then
          map.(id) <-
            B.add b kind
              (Array.to_list (Array.map (fun f -> map.(f)) info.Netlist.fanins)));
  List.iter
    (fun (name, node) -> B.output b name map.(node))
    (Netlist.outputs netlist);
  B.finish b

let run netlist =
  let b = B.create ~name:(Netlist.name netlist) () in
  let ctx = { b; table = Hashtbl.create 256; neg = Hashtbl.create 64 } in
  let keep =
    Netlist.transitive_fanin netlist
      (List.map snd (Netlist.outputs netlist))
  in
  let reps = Array.make (Netlist.node_count netlist) (C false) in
  (* Inputs are always declared, in order, to preserve the interface. *)
  List.iter
    (fun id ->
      let name =
        match (Netlist.info netlist id).Netlist.name with
        | Some n -> n
        | None -> Printf.sprintf "_in%d" id
      in
      reps.(id) <- N (B.input ctx.b name))
    (Netlist.inputs netlist);
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind ->
        if keep id then begin
          let fanin_reps =
            Array.to_list (Array.map (fun f -> reps.(f)) info.Netlist.fanins)
          in
          reps.(id) <- mk_gate ctx kind fanin_reps
        end);
  List.iter
    (fun (name, node) ->
      let n =
        match reps.(node) with C v -> B.const ctx.b v | N x -> x
      in
      B.output ctx.b name n)
    (Netlist.outputs netlist);
  sweep (B.finish ctx.b)

let digest netlist = Netlist.digest (run netlist)
