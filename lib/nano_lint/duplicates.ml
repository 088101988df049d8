module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Hashcons = Nano_synth.Hashcons

let pass = "dup"

let commutative = function
  | Gate.And | Gate.Or | Gate.Xor | Gate.Xnor | Gate.Nand | Gate.Nor
  | Gate.Majority ->
    true
  | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not -> false

let run netlist ~reachable =
  let n = Netlist.node_count netlist in
  let operands = ref 0 and widest = ref 0 in
  Netlist.iter netlist (fun _ info ->
      let a = Array.length info.Netlist.fanins in
      operands := !operands + a;
      widest := max !widest a);
  (* Structural classes, hash-consed on the kind code and the fanins'
     classes (sorted for the symmetric kinds); every input is a class of
     its own. *)
  let classes = Hashcons.create () in
  Hashcons.reset classes ~nodes:n ~operands:!operands;
  let key = Array.make !widest 0 in
  let class_of = Array.make n 0 in
  Netlist.iter netlist (fun id info ->
      let kind = info.Netlist.kind in
      let f = info.Netlist.fanins in
      let len = Array.length f in
      for j = 0 to len - 1 do
        key.(j) <- class_of.(f.(j))
      done;
      if commutative kind then Hashcons.sort key len;
      class_of.(id) <-
        (match kind with
        | Gate.Input -> Hashcons.add classes (Gate.code kind) key 0
        | _ -> Hashcons.share classes (Gate.code kind) key len));
  (* members.(c): the reachable logic gates in class [c]. *)
  let members = Array.make (Hashcons.count classes) 0 in
  let member id =
    reachable.(id) && not (Gate.is_source (Netlist.kind netlist id))
  in
  for id = 0 to n - 1 do
    if member id then members.(class_of.(id)) <- members.(class_of.(id)) + 1
  done;
  let duplicated c = members.(c) >= 2 in
  (* Only the outermost duplication is worth a report: a class is
     suppressed when every member sits strictly inside a duplicated
     parent (all fanouts duplicated, no output pin). [free.(id)]: [id]
     drives an output, nothing at all, or some unduplicated gate. *)
  let free = Array.make n false and drives = Array.make n false in
  Array.iter (fun id -> free.(id) <- true) (Netlist.output_ids netlist);
  Netlist.iter netlist (fun id info ->
      let parent_free = not (duplicated class_of.(id)) in
      Array.iter
        (fun f ->
          drives.(f) <- true;
          if parent_free then free.(f) <- true)
        info.Netlist.fanins);
  let nclasses = Hashcons.count classes in
  let reported = Array.make nclasses false in
  for id = 0 to n - 1 do
    let c = class_of.(id) in
    if member id && duplicated c && (free.(id) || not drives.(id)) then
      reported.(c) <- true
  done;
  (* The members of each reported class, ascending, bucketed by class. *)
  let offset = Array.make (nclasses + 1) 0 in
  for c = 0 to nclasses - 1 do
    offset.(c + 1) <- (offset.(c) + if reported.(c) then members.(c) else 0)
  done;
  let fill = Array.sub offset 0 nclasses in
  let slots = Array.make offset.(nclasses) 0 in
  for id = 0 to n - 1 do
    let c = class_of.(id) in
    if member id && reported.(c) then begin
      slots.(fill.(c)) <- id;
      fill.(c) <- fill.(c) + 1
    end
  done;
  (* One warning per reported class, in ascending order of its lowest
     member; the subcone digests share one engine scratch. *)
  let scratch = Nano_synth.Strash.scratch () in
  let diags = ref [] in
  for rep = 0 to n - 1 do
    let c = class_of.(rep) in
    if member rep && reported.(c) && slots.(offset.(c)) = rep then begin
      let ids = Array.sub slots offset.(c) members.(c) in
      diags :=
        Diagnostic.make Diagnostic.Warning ~pass ~code:"duplicate-subcone"
          (Diagnostic.Node rep)
          (Printf.sprintf
             "gates %s root structurally identical %s subcones (strash \
              digest %s); the duplicates inflate S0 without adding function"
             (String.concat ", "
                (Array.to_list (Array.map string_of_int ids)))
             (Gate.name (Netlist.kind netlist rep))
             (Nano_synth.Strash.cone_digest scratch netlist rep))
        :: !diags
    end
  done;
  List.rev !diags
