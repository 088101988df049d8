(* The pre-rewrite balancing pass, kept as the oracle for
   [Nano_synth.Balance]: it also rebuilds the chains rooted at nodes
   their parent inlines, which the final sweep then deletes. The
   library skips those nodes and must return the same netlist. *)

module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Gate = Nano_netlist.Gate

let associative = function
  | Gate.And | Gate.Or | Gate.Xor -> true
  | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Nand | Gate.Nor
  | Gate.Xnor | Gate.Majority -> false

(* Remove the operand with the smallest level. Operand lists are tiny
   (chain widths), so linear selection is fine. *)
let take_min_level operands =
  match operands with
  | [] -> invalid_arg "Balance.take_min_level: empty"
  | first :: rest ->
    let best =
      List.fold_left
        (fun (bn, bl) (n, l) -> if l < bl then (n, l) else (bn, bl))
        first rest
    in
    let removed = ref false in
    let remaining =
      List.filter
        (fun op ->
          if (not !removed) && op = best then begin
            removed := true;
            false
          end
          else true)
        operands
    in
    (best, remaining)

let run netlist =
  let b = B.create ~name:(Netlist.name netlist) () in
  let fanout = Netlist.fanout_counts netlist in
  (* Treat output pins as extra fanout so chains feeding outputs stay
     observable roots. *)
  List.iter
    (fun (_, node) -> fanout.(node) <- fanout.(node) + 1)
    (Netlist.outputs netlist);
  let n = Netlist.node_count netlist in
  let map = Array.make n (-1) in
  (* Logic level of each node in the NEW builder; inputs stay 0. *)
  let levels = ref (Array.make (2 * n) 0) in
  let level_of node =
    if node < Array.length !levels then !levels.(node) else 0
  in
  let set_level node l =
    if node >= Array.length !levels then begin
      let grown = Array.make (2 * (node + 1)) 0 in
      Array.blit !levels 0 grown 0 (Array.length !levels);
      levels := grown
    end;
    !levels.(node) <- l
  in
  List.iter
    (fun id ->
      let name =
        match (Netlist.info netlist id).Netlist.name with
        | Some nm -> nm
        | None -> Printf.sprintf "_in%d" id
      in
      map.(id) <- B.input b name)
    (Netlist.inputs netlist);
  (* Flattened operands of a same-kind chain rooted at [id]:
     single-fanout same-kind fanins are inlined recursively; everything
     else contributes its already-built node. Also reports the widest
     gate arity seen in the chain, which bounds the rebuilt tree's
     fanin (rebuilding 3-input gates as binary trees could deepen the
     circuit). *)
  let rec operands_of kind id (acc, widest) =
    let info = Netlist.info netlist id in
    if info.Netlist.kind = kind && fanout.(id) = 1 then
      Array.fold_left
        (fun acc f -> operands_of kind f acc)
        (acc, max widest (Array.length info.Netlist.fanins))
        info.Netlist.fanins
    else (map.(id) :: acc, widest)
  in
  (* Merge the [r] earliest-arriving operands into one gate. *)
  let merge kind r ops =
    let picked = ref [] in
    let rest = ref ops in
    for _ = 1 to r do
      let best, remaining = take_min_level !rest in
      picked := best :: !picked;
      rest := remaining
    done;
    let nodes = List.map fst !picked in
    let combined = B.add b kind nodes in
    let l = 1 + List.fold_left (fun acc (_, l) -> max acc l) 0 !picked in
    set_level combined l;
    (combined, l) :: !rest
  in
  (* k-ary Huffman by arrival level; the first merge takes the padding
     remainder so every later merge is exactly k-wide (the classical
     optimal grouping). *)
  let balance kind ~k ops =
    match ops with
    | [] -> invalid_arg "Balance: empty operand list"
    | [ (node, _) ] -> node
    | _ ->
      let n = List.length ops in
      let first =
        if k <= 2 then 2
        else begin
          let m = (n - 1) mod (k - 1) in
          if m = 0 then k else m + 1
        end
      in
      let rec go ops =
        match ops with
        | [ (node, _) ] -> node
        | _ -> go (merge kind k ops)
      in
      go (merge kind (max 2 first) ops)
  in
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind when associative kind ->
        let ops, widest =
          Array.fold_left
            (fun acc f -> operands_of kind f acc)
            ([], Array.length info.Netlist.fanins)
            info.Netlist.fanins
        in
        let ops = List.map (fun node -> (node, level_of node)) ops in
        map.(id) <- balance kind ~k:widest ops
      | kind ->
        let fanins =
          Array.to_list (Array.map (fun f -> map.(f)) info.Netlist.fanins)
        in
        let node = B.add b kind fanins in
        let l =
          1 + List.fold_left (fun acc f -> max acc (level_of f)) 0 fanins
        in
        set_level node l;
        map.(id) <- node);
  List.iter
    (fun (name, node) -> B.output b name map.(node))
    (Netlist.outputs netlist);
  (* Drop the chain gates that were inlined away. *)
  Nano_synth.Strash.sweep (B.finish b)
