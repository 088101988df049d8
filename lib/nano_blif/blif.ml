module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse_error of error

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Growable int arrays: the scan's only containers. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create k = { a = Array.make (max k 1) 0; n = 0 }

  let grow v =
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a

  let[@inline] push v x =
    if v.n = Array.length v.a then grow v;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let contents v = Array.sub v.a 0 v.n
end

(* ------------------------------------------------------------------ *)
(* The scan: one pass over the physical lines.                          *)
(* ------------------------------------------------------------------ *)

(* A signal is a dense id; its first spelling stays an (offset, length)
   pair into the text until someone asks for its name. The arrays are
   the scan's own, longer than their contents: [signals] and [blocks]
   say how much of them is used. *)
type model = {
  text : string;
  m_name : string;
  m_line : int;  (* line of the last .model (1 when implicit) *)
  signals : int;
  spell : int array;  (* signal s: offset spell.(2s), length spell.(2s+1) *)
  inputs : int array;  (* signal ids, declaration order *)
  input_lines : int array;
  outputs : int array;
  output_lines : int array;
  blocks : int;  (* .names blocks *)
  blk_line : int array;
  blk_sigs : int array;
      (* block b reads sigs.(blk_sigs.(b)) .. sigs.(blk_sigs.(b+1) - 2)
         and drives sigs.(blk_sigs.(b+1) - 1); a sentinel follows the
         last block *)
  blk_rows : int array;  (* block b owns rows blk_rows.(b) .. blk_rows.(b+1) - 1 *)
  sigs : int array;
  rows : int array;
      (* row r: its input plane's offset rows.(2r) in the text, and
         rows.(2r+1) = width lsl 8 lor the output bit's char code *)
}

let signal_name m id = String.sub m.text m.spell.(2 * id) m.spell.((2 * id) + 1)

(* Signals interned to ids in an open-addressing table keyed on the
   bytes of the text. A hit allocates nothing. *)
type interner = {
  keys : string;  (* the text the names are spelled in *)
  mutable slots : int array;
      (* pairs (id + 1, hash), id + 1 = 0 when empty; a power of 2 pairs *)
  spelling : Ivec.t;  (* pairs (offset, length) per id *)
}

let hash_sub s off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 31)

(* [len] bytes of [a] from [ai] equal those of [b] from [bi]; both in
   bounds. *)
let same_bytes a ai b bi len =
  let i = ref 0 in
  while
    !i < len && String.unsafe_get a (ai + !i) = String.unsafe_get b (bi + !i)
  do
    incr i
  done;
  !i = len

let grow_slots t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) 0 in
  let mask = (Array.length slots / 2) - 1 in
  for j = 0 to (Array.length old / 2) - 1 do
    let id1 = old.(2 * j) and h = old.((2 * j) + 1) in
    if id1 <> 0 then begin
      let k = ref (h land mask) in
      while slots.(2 * !k) <> 0 do
        k := (!k + 1) land mask
      done;
      slots.(2 * !k) <- id1;
      slots.((2 * !k) + 1) <- h
    end
  done;
  t.slots <- slots

let intern t off len =
  let h = hash_sub t.keys off len in
  let slots = t.slots in
  let mask = (Array.length slots / 2) - 1 in
  let j = ref (h land mask) in
  let found = ref (-1) in
  while !found < 0 do
    let id1 = Array.unsafe_get slots (2 * !j) in
    if id1 = 0 then begin
      let id = t.spelling.Ivec.n / 2 in
      Ivec.push t.spelling off;
      Ivec.push t.spelling len;
      slots.(2 * !j) <- id + 1;
      slots.((2 * !j) + 1) <- h;
      if 4 * (id + 1) > Array.length slots then grow_slots t;
      found := id
    end
    else if
      Array.unsafe_get slots ((2 * !j) + 1) = h
      &&
      let sp = t.spelling.Ivec.a and id = id1 - 1 in
      sp.((2 * id) + 1) = len && same_bytes t.keys sp.(2 * id) t.keys off len
    then found := id1 - 1
    else j := (!j + 1) land mask
  done;
  !found

let sub_is text off len lit =
  len = String.length lit && same_bytes text off lit 0 len

(* The scan's state: the model being collected, and the tokens of the
   logical line being read. *)
type scan = {
  src : string;
  names : interner;
  mutable name : string;
  mutable name_line : int;
  ins : Ivec.t;
  in_lines : Ivec.t;
  outs : Ivec.t;
  out_lines : Ivec.t;
  blocks : Ivec.t;  (* .names lines *)
  block_sigs : Ivec.t;
  block_rows : Ivec.t;
  sig_ids : Ivec.t;
  row_data : Ivec.t;
  mutable in_block : bool;
  toks : Ivec.t;
  tlens : Ivec.t;
}

let declare st ids lines lineno =
  for k = 1 to st.toks.Ivec.n - 1 do
    Ivec.push ids (intern st.names st.toks.Ivec.a.(k) st.tlens.Ivec.a.(k));
    Ivec.push lines lineno
  done

let add_row st plane width bit =
  Ivec.push st.row_data plane;
  Ivec.push st.row_data ((width lsl 8) lor Char.code bit)

let logical_line st lineno =
  let text = st.src and ntok = st.toks.Ivec.n in
  let off = st.toks.Ivec.a and tl = st.tlens.Ivec.a in
  let o = off.(0) and l = tl.(0) in
  if text.[o] = '.' then begin
    st.in_block <- false;
    if sub_is text o l ".names" then begin
      if ntok = 1 then fail lineno ".names expects at least an output";
      Ivec.push st.blocks lineno;
      Ivec.push st.block_sigs st.sig_ids.Ivec.n;
      Ivec.push st.block_rows (st.row_data.Ivec.n / 2);
      for k = 1 to ntok - 1 do
        Ivec.push st.sig_ids (intern st.names off.(k) tl.(k))
      done;
      st.in_block <- true
    end
    else if sub_is text o l ".inputs" then declare st st.ins st.in_lines lineno
    else if sub_is text o l ".outputs" then
      declare st st.outs st.out_lines lineno
    else if sub_is text o l ".model" then begin
      if ntok <> 2 then fail lineno ".model expects one name";
      st.name <- String.sub text off.(1) tl.(1);
      st.name_line <- lineno
    end
    else if sub_is text o l ".end" then ()
    else if sub_is text o l ".exdc" then fail lineno ".exdc is not supported"
    else if sub_is text o l ".latch" then
      fail lineno ".latch is not supported (combinational subset only)"
    else if sub_is text o l ".subckt" || sub_is text o l ".search" then
      fail lineno "hierarchical BLIF is not supported"
    else fail lineno "unknown directive %s" (String.sub text o l)
  end
  else if st.in_block && ntok = 2 then begin
    if tl.(1) <> 1 then fail lineno "bad cube row";
    add_row st o l text.[off.(1)]
  end
  else if st.in_block && ntok = 1 then begin
    (* Constant cover for a zero-input .names. *)
    if l <> 1 then fail lineno "bad constant row";
    add_row st o 0 text.[o]
  end
  else fail lineno "unexpected tokens"

(* Physical lines are cut at the first '#' and stripped of trailing
   blanks and CRs; a final backslash then continues the logical line
   onto the next one, and a logical line is numbered by its first
   physical line. Tokens are maximal runs of anything but ' ' and '\t',
   kept as (offset, length) pairs. *)
let read_exn text =
  let len = String.length text in
  let slots = ref 64 in
  while !slots < len / 32 do
    slots := 2 * !slots
  done;
  let st =
    {
      src = text;
      names =
        { keys = text; slots = Array.make (2 * !slots) 0; spelling = Ivec.create 128 };
      name = "model";
      name_line = 1;
      ins = Ivec.create 16;
      in_lines = Ivec.create 16;
      outs = Ivec.create 16;
      out_lines = Ivec.create 16;
      blocks = Ivec.create 64;
      block_sigs = Ivec.create 64;
      block_rows = Ivec.create 64;
      sig_ids = Ivec.create 256;
      row_data = Ivec.create 512;
      in_block = false;
      toks = Ivec.create 32;
      tlens = Ivec.create 32;
    }
  in
  let toks = st.toks and tlens = st.tlens in
  let pos = ref 0 and lineno = ref 1 in
  let group = ref 0 in (* first line of a continued logical line, or 0 *)
  while !pos <= len do
    let first_tok = toks.Ivec.n in
    let i = ref !pos in
    while
      !i < len
      &&
      match String.unsafe_get text !i with '\n' | '#' -> false | _ -> true
    do
      if String.unsafe_get text !i = ' ' || String.unsafe_get text !i = '\t'
      then incr i
      else begin
        let start = !i in
        incr i;
        while
          !i < len
          &&
          match String.unsafe_get text !i with
          | ' ' | '\t' | '\n' | '#' -> false
          | _ -> true
        do
          incr i
        done;
        Ivec.push toks start;
        Ivec.push tlens (!i - start)
      end
    done;
    while !i < len && String.unsafe_get text !i <> '\n' do
      incr i
    done;
    (* Trailing CRs come off the line's last tokens (blanks are never in
       a token), then a final backslash marks a continuation. *)
    let trimming = ref true in
    while !trimming && toks.Ivec.n > first_tok do
      let k = toks.Ivec.n - 1 in
      let o = toks.Ivec.a.(k) and l = ref tlens.Ivec.a.(k) in
      while !l > 0 && String.unsafe_get text (o + !l - 1) = '\r' do
        decr l
      done;
      tlens.Ivec.a.(k) <- !l;
      if !l = 0 then begin
        toks.Ivec.n <- k;
        tlens.Ivec.n <- k
      end
      else trimming := false
    done;
    let continued =
      toks.Ivec.n > first_tok
      &&
      let k = toks.Ivec.n - 1 in
      let l = tlens.Ivec.a.(k) in
      text.[toks.Ivec.a.(k) + l - 1] = '\\'
      && begin
        tlens.Ivec.a.(k) <- l - 1;
        if l = 1 then begin
          toks.Ivec.n <- k;
          tlens.Ivec.n <- k
        end;
        true
      end
    in
    if continued then begin
      if !group = 0 then group := !lineno
    end
    else begin
      if toks.Ivec.n > 0 then
        logical_line st (if !group = 0 then !lineno else !group);
      toks.Ivec.n <- 0;
      tlens.Ivec.n <- 0;
      group := 0
    end;
    pos := !i + 1;
    incr lineno
  done;
  if toks.Ivec.n > 0 then logical_line st !group;
  let blocks = st.blocks.Ivec.n in
  Ivec.push st.block_sigs st.sig_ids.Ivec.n;
  Ivec.push st.block_rows (st.row_data.Ivec.n / 2);
  {
    text;
    m_name = st.name;
    m_line = st.name_line;
    signals = st.names.spelling.Ivec.n / 2;
    spell = st.names.spelling.Ivec.a;
    inputs = Ivec.contents st.ins;
    input_lines = Ivec.contents st.in_lines;
    outputs = Ivec.contents st.outs;
    output_lines = Ivec.contents st.out_lines;
    blocks;
    blk_line = st.blocks.Ivec.a;
    blk_sigs = st.block_sigs.Ivec.a;
    blk_rows = st.block_rows.Ivec.a;
    sigs = st.sig_ids.Ivec.a;
    rows = st.row_data.Ivec.a;
  }

let read text =
  match read_exn text with
  | m -> Ok m
  | exception Parse_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Raw structural view, for static analysis before elaboration.        *)
(* ------------------------------------------------------------------ *)

module Raw = struct
  type def = { line : int; output : string; inputs : string list }

  type t = {
    model : string;
    inputs : (string * int) list;
    outputs : (string * int) list;
    defs : def list;
  }
end

let raw m =
  let names = Array.init m.signals (signal_name m) in
  let declared ids lines =
    List.init (Array.length ids) (fun k -> (names.(ids.(k)), lines.(k)))
  in
  let def b =
    let first = m.blk_sigs.(b) and out = m.blk_sigs.(b + 1) - 1 in
    {
      Raw.line = m.blk_line.(b);
      output = names.(m.sigs.(out));
      inputs = List.init (out - first) (fun k -> names.(m.sigs.(first + k)));
    }
  in
  {
    Raw.model = m.m_name;
    inputs = declared m.inputs m.input_lines;
    outputs = declared m.outputs m.output_lines;
    defs = List.init m.blocks def;
  }

let parse_raw text = Result.map raw (read text)

(* ------------------------------------------------------------------ *)
(* Elaboration: signal -> node, with two-level expansion of covers.    *)
(* ------------------------------------------------------------------ *)

(* Nodes are appended to a growable [info] array in the order
   [Netlist.Builder] would number them (see the node-order contract in
   blif.mli), and frozen without re-checking: every fanin is an earlier
   node and every arity is right by construction. *)
type nodes = {
  mutable info : Netlist.info array;
  mutable neg : int array;  (* node -> its NOT, or -1 *)
  mutable count : int;
  mutable const0 : int;
  mutable const1 : int;
}

let no_info = { Netlist.kind = Gate.Const false; fanins = [||]; name = None }

let reserve ns k =
  let cap = Array.length ns.info in
  if ns.count + k > cap then begin
    let cap' = max (2 * cap) (ns.count + k) in
    let info = Array.make cap' no_info and neg = Array.make cap' (-1) in
    Array.blit ns.info 0 info 0 ns.count;
    Array.blit ns.neg 0 neg 0 ns.count;
    ns.info <- info;
    ns.neg <- neg
  end

let push ns kind fanins name =
  reserve ns 1;
  let id = ns.count in
  ns.info.(id) <- { Netlist.kind; fanins; name };
  ns.count <- id + 1;
  id

let negate ns n =
  let v = ns.neg.(n) in
  if v >= 0 then v
  else begin
    let v = push ns Gate.Not [| n |] None in
    ns.neg.(n) <- v;
    v
  end

let const ns value =
  if value then begin
    if ns.const1 < 0 then ns.const1 <- push ns (Gate.Const true) [||] None;
    ns.const1
  end
  else begin
    if ns.const0 < 0 then ns.const0 <- push ns (Gate.Const false) [||] None;
    ns.const0
  end

(* Balanced tree of two-input [kind] gates over buf.(0) .. buf.(k-1), in
   place. Each round pairs neighbours left to right but numbers the
   pairs right to left, as [Netlist.Builder.reduce] does. *)
let reduce ns kind buf k =
  let m = ref k in
  while !m > 1 do
    let pairs = !m / 2 in
    reserve ns pairs;
    let base = ns.count in
    for i = 0 to pairs - 1 do
      let id = base + pairs - 1 - i in
      ns.info.(id) <-
        { Netlist.kind; fanins = [| buf.(2 * i); buf.((2 * i) + 1) |]; name = None };
      buf.(i) <- id
    done;
    ns.count <- base + pairs;
    if !m land 1 = 1 then buf.(pairs) <- buf.(!m - 1);
    m := pairs + (!m land 1)
  done;
  buf.(0)

let elaborate_exn m =
  let text = m.text in
  let nsig = m.signals and nblk = m.blocks in
  let name = signal_name m in
  let driver = Array.make nsig (-1) in
  let widest = ref 0 and longest = ref 0 in
  for b = 0 to nblk - 1 do
    let out = m.sigs.(m.blk_sigs.(b + 1) - 1) in
    let first = driver.(out) in
    if first >= 0 then
      (* Reject the second driver outright: silently keeping either
         cover would change the function behind the user's back. *)
      fail m.blk_line.(b)
        "signal %s driven by more than one .names (first driver at line %d)"
        (name out) m.blk_line.(first);
    driver.(out) <- b;
    widest := max !widest (m.blk_sigs.(b + 1) - 1 - m.blk_sigs.(b));
    longest := max !longest (m.blk_rows.(b + 1) - m.blk_rows.(b))
  done;
  let ns =
    let cap = Array.length m.inputs + m.blk_rows.(nblk) + 16 in
    {
      info = Array.make cap no_info;
      neg = Array.make cap (-1);
      count = 0;
      const0 = -1;
      const1 = -1;
    }
  in
  let node_of = Array.make nsig (-1) in
  let input_ids =
    Array.mapi
      (fun k s ->
        let line = m.input_lines.(k) in
        if node_of.(s) >= 0 then fail line "duplicate input %s" (name s);
        if driver.(s) >= 0 then
          fail line "input %s is also driven by a .names block" (name s);
        let id = push ns Gate.Input [||] (Some (name s)) in
        node_of.(s) <- id;
        id)
      m.inputs
  in
  let lits = Array.make (max 1 !widest) 0 and terms = Array.make (max 1 !longest) 0 in
  let in_progress = Bytes.make nsig '\000' in
  (* Signals being elaborated, oldest first, so a detected cycle can be
     reported with its witness path rather than just the signal it
     closed on. *)
  let stack = Ivec.create 16 in
  let rec resolve line s =
    let n = node_of.(s) in
    if n >= 0 then n
    else begin
      let b = driver.(s) in
      if b < 0 then fail line "signal %s is never defined" (name s);
      if Bytes.get in_progress s <> '\000' then begin
        let j = ref (stack.Ivec.n - 1) in
        while stack.Ivec.a.(!j) <> s do
          decr j
        done;
        let witness =
          List.init (stack.Ivec.n - !j) (fun k -> name stack.Ivec.a.(!j + k))
        in
        fail m.blk_line.(b) "combinational cycle: %s"
          (String.concat " -> " (witness @ [ name s ]))
      end;
      Bytes.set in_progress s '\001';
      Ivec.push stack s;
      let n = build_cover b in
      Bytes.set in_progress s '\000';
      stack.Ivec.n <- stack.Ivec.n - 1;
      node_of.(s) <- n;
      n
    end
  and build_cover b =
    let line = m.blk_line.(b) in
    let first = m.blk_sigs.(b) and out = m.blk_sigs.(b + 1) - 1 in
    for k = first to out - 1 do
      ignore (resolve line m.sigs.(k))
    done;
    let width = out - first in
    let r0 = m.blk_rows.(b) and r1 = m.blk_rows.(b + 1) in
    if r0 = r1 then const ns false
    else begin
      let polarity =
        match Char.chr (m.rows.((2 * r0) + 1) land 0xff) with
        | '1' -> true
        | '0' -> false
        | c -> fail line "bad output bit %c" c
      in
      for r = r0 to r1 - 1 do
        let shape = m.rows.((2 * r) + 1) in
        if shape lsr 8 <> width then fail line "cube width mismatch";
        let row_pol =
          match Char.chr (shape land 0xff) with
          | '1' -> true
          | '0' -> false
          | c -> fail line "bad output bit %c" c
        in
        if row_pol <> polarity then
          fail line "mixed ON/OFF-set covers are not supported"
      done;
      for r = r0 to r1 - 1 do
        let plane = m.rows.(2 * r) in
        let k = ref 0 in
        for i = 0 to width - 1 do
          match String.unsafe_get text (plane + i) with
          | '1' ->
            lits.(!k) <- node_of.(m.sigs.(first + i));
            incr k
          | '0' ->
            lits.(!k) <- negate ns node_of.(m.sigs.(first + i));
            incr k
          | '-' -> ()
          | c -> fail line "bad cube character %c" c
        done;
        terms.(r - r0) <-
          (if !k = 0 then const ns true else reduce ns Gate.And lits !k)
      done;
      let sum = reduce ns Gate.Or terms (r1 - r0) in
      if polarity then sum else negate ns sum
    end
  in
  let nout = Array.length m.outputs in
  if nout = 0 then fail m.m_line "model has no outputs";
  let declared = Bytes.make nsig '\000' in
  let output_ids =
    Array.mapi
      (fun k s ->
        let line = m.output_lines.(k) in
        let n = resolve line s in
        if Bytes.get declared s <> '\000' then
          fail line "duplicate output %s" (name s);
        Bytes.set declared s '\001';
        n)
      m.outputs
  in
  Netlist.of_arrays_unchecked ~name:m.m_name
    (Array.sub ns.info 0 ns.count)
    ~inputs:input_ids
    ~output_names:(Array.map name m.outputs)
    ~output_ids

let elaborate m =
  match elaborate_exn m with
  | netlist -> Ok netlist
  | exception Parse_error e -> Error e

let parse_string text = Result.bind (read text) elaborate

let parse_file path =
  parse_string (In_channel.with_open_text path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)
(* ------------------------------------------------------------------ *)

let signal_names netlist =
  let n = Netlist.node_count netlist in
  let names = Array.make n "" in
  let used = Hashtbl.create n in
  let claim base =
    let rec go candidate k =
      if Hashtbl.mem used candidate then go (Printf.sprintf "%s_%d" base k) (k + 1)
      else begin
        Hashtbl.replace used candidate ();
        candidate
      end
    in
    go base 0
  in
  Netlist.iter netlist (fun id info ->
      let base =
        match info.Netlist.name with
        | Some nm -> nm
        | None -> Printf.sprintf "n%d" id
      in
      names.(id) <- claim base);
  names

let cover_rows kind arity =
  (* Rows as (plane, output-bit) strings for each primitive kind. *)
  let all c = String.make arity c in
  let one_hot i c =
    String.init arity (fun j -> if i = j then c else '-')
  in
  match kind with
  | Gate.Const true -> [ ("", '1') ]
  | Gate.Const false -> []
  | Gate.Buf -> [ ("1", '1') ]
  | Gate.Not -> [ ("0", '1') ]
  | Gate.And -> [ (all '1', '1') ]
  | Gate.Nand -> [ (all '1', '0') ]
  | Gate.Or -> List.init arity (fun i -> (one_hot i '1', '1'))
  | Gate.Nor -> List.init arity (fun i -> (one_hot i '1', '0'))
  | Gate.Xor | Gate.Xnor | Gate.Majority ->
    let rows = ref [] in
    for a = (1 lsl arity) - 1 downto 0 do
      let pop = Nano_util.Bits.popcount64 (Int64.of_int a) in
      let keep =
        match kind with
        | Gate.Xor -> pop land 1 = 1
        | Gate.Xnor -> pop land 1 = 0
        | Gate.Majority -> pop > arity / 2
        | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And
        | Gate.Or | Gate.Nand | Gate.Nor -> false
      in
      if keep then begin
        let plane =
          String.init arity (fun i ->
              if (a lsr i) land 1 = 1 then '1' else '0')
        in
        rows := (plane, '1') :: !rows
      end
    done;
    !rows
  | Gate.Input -> invalid_arg "Blif.cover_rows: Input"

let to_string netlist =
  let names = signal_names netlist in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Netlist.name netlist));
  let in_names =
    List.map (fun id -> names.(id)) (Netlist.inputs netlist)
  in
  Buffer.add_string buf (".inputs " ^ String.concat " " in_names ^ "\n");
  let out_signals = Netlist.outputs netlist in
  Buffer.add_string buf
    (".outputs " ^ String.concat " " (List.map fst out_signals) ^ "\n");
  Netlist.iter netlist (fun id info ->
      match info.Netlist.kind with
      | Gate.Input -> ()
      | kind ->
        let fan = Array.to_list (Array.map (fun f -> names.(f)) info.Netlist.fanins) in
        Buffer.add_string buf
          (".names " ^ String.concat " " (fan @ [ names.(id) ]) ^ "\n");
        List.iter
          (fun (plane, bit) ->
            if plane = "" then Buffer.add_string buf (Printf.sprintf "%c\n" bit)
            else Buffer.add_string buf (Printf.sprintf "%s %c\n" plane bit))
          (cover_rows kind (Array.length info.Netlist.fanins)));
  (* Primary outputs may need an aliasing buffer when the output name
     differs from the driving node's net name. *)
  List.iter
    (fun (out_name, node) ->
      if names.(node) <> out_name then begin
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n1 1\n" names.(node) out_name)
      end)
    out_signals;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path netlist =
  let oc = open_out path in
  output_string oc (to_string netlist);
  close_out oc
