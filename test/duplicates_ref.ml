(* The duplicate-subcone pass as it stood before the flat-array
   rewrite, kept verbatim (string class keys, one extracted netlist per
   group, digested by {!Strash_ref}) as the reference that test_lint
   compares [Nano_lint.Duplicates] against. *)

module Diagnostic = Nano_lint.Diagnostic
module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

let pass = "dup"

let commutative = function
  | Gate.And | Gate.Or | Gate.Xor | Gate.Xnor | Gate.Nand | Gate.Nor
  | Gate.Majority ->
    true
  | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not -> false

(* Copy the input cone of [root] into a standalone netlist (fresh
   builder, cone support as primary inputs) so its strashed content
   address can label the diagnostic. *)
let extract_subcone netlist root =
  let b = Netlist.Builder.create ~name:"subcone" () in
  let map = Hashtbl.create 16 in
  let rec go id =
    match Hashtbl.find_opt map id with
    | Some n -> n
    | None ->
      let info = Netlist.info netlist id in
      let n =
        match info.Netlist.kind with
        | Gate.Input ->
          let name =
            match info.Netlist.name with
            | Some s -> s
            | None -> Printf.sprintf "n%d" id
          in
          Netlist.Builder.input b name
        | Gate.Const c -> Netlist.Builder.const b c
        | kind ->
          Netlist.Builder.add b kind
            (List.map go (Array.to_list info.Netlist.fanins))
      in
      Hashtbl.replace map id n;
      n
  in
  let out = go root in
  Netlist.Builder.output b "cone" out;
  Netlist.Builder.finish b

let run netlist ~reachable =
  let n = Netlist.node_count netlist in
  let class_of = Array.make n (-1) in
  let classes : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let next_class = ref 0 in
  let class_for key =
    match Hashtbl.find_opt classes key with
    | Some c -> c
    | None ->
      let c = !next_class in
      incr next_class;
      Hashtbl.replace classes key c;
      c
  in
  (* members.(class) = reachable logic-gate node ids, descending while
     building (reversed to ascending at use). *)
  let members : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Netlist.iter netlist (fun id info ->
      let key =
        match info.Netlist.kind with
        | Gate.Input -> Printf.sprintf "i%d" id (* every input is itself *)
        | Gate.Const b -> if b then "c1" else "c0"
        | kind ->
          let child = Array.map (fun f -> class_of.(f)) info.Netlist.fanins in
          if commutative kind then Array.sort Stdlib.compare child;
          Gate.name kind ^ ":"
          ^ String.concat ","
              (Array.to_list (Array.map string_of_int child))
      in
      let c = class_for key in
      class_of.(id) <- c;
      if reachable.(id) && not (Gate.is_source info.Netlist.kind) then
        Hashtbl.replace members c
          (match Hashtbl.find_opt members c with
          | Some l -> id :: l
          | None -> [ id ]));
  let duplicated c =
    match Hashtbl.find_opt members c with
    | Some (_ :: _ :: _) -> true
    | _ -> false
  in
  (* Only the outermost duplication is worth a report: suppress a class
     whose members every one sits strictly inside a duplicated parent
     (all fanouts duplicated, no output pin). *)
  let fanout_classes : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Netlist.iter netlist (fun id info ->
      Array.iter
        (fun f ->
          Hashtbl.replace fanout_classes f
            (class_of.(id)
            :: (match Hashtbl.find_opt fanout_classes f with
               | Some l -> l
               | None -> [])))
        info.Netlist.fanins);
  let is_output = Array.make n false in
  Array.iter (fun id -> is_output.(id) <- true) (Netlist.output_ids netlist);
  let maximal ids =
    List.exists
      (fun id ->
        is_output.(id)
        ||
        match Hashtbl.find_opt fanout_classes id with
        | None -> true (* no fanout at all: nothing subsumes it *)
        | Some parents -> List.exists (fun p -> not (duplicated p)) parents)
      ids
  in
  let diags = ref [] in
  (* Emit in ascending representative order for determinism. *)
  let groups =
    Hashtbl.fold
      (fun _c ids acc ->
        match List.rev ids with
        | (_ :: _ :: _) as sorted when maximal sorted -> sorted :: acc
        | _ -> acc)
      members []
    |> List.sort (fun a b -> Stdlib.compare (List.hd a) (List.hd b))
  in
  List.iter
    (fun ids ->
      let rep = List.hd ids in
      let digest = Strash_ref.digest (extract_subcone netlist rep) in
      let kind = Netlist.kind netlist rep in
      diags :=
        Diagnostic.make Diagnostic.Warning ~pass ~code:"duplicate-subcone"
          (Diagnostic.Node rep)
          (Printf.sprintf
             "gates %s root structurally identical %s subcones (strash \
              digest %s); the duplicates inflate S0 without adding function"
             (String.concat ", " (List.map string_of_int ids))
             (Gate.name kind) digest)
        :: !diags)
    groups;
  List.rev !diags
