(* The BLIF reader as it stood before the one-scan rewrite — line
   lists, token strings, string-keyed tables and [Netlist.Builder] —
   kept verbatim as the reference that test_blif compares
   [Nano_blif.Blif] against: same netlist digest and names, same raw
   view, or the same error. *)

module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate

type error = Nano_blif.Blif.error = { line : int; message : string }

exception Parse_error of error

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexing: comments, continuations, whitespace tokenization.           *)
(* ------------------------------------------------------------------ *)

type raw_line = { lineno : int; tokens : string list }

let tokenize_lines text =
  let lines = String.split_on_char '\n' text in
  (* Fold continuation backslashes into single logical lines, keeping the
     number of the first physical line. *)
  let rec logical acc pending pending_no lineno = function
    | [] ->
      let acc =
        match pending with
        | Some s -> { lineno = pending_no; tokens = s } :: acc
        | None -> acc
      in
      List.rev acc
    | raw :: rest ->
      let raw =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      (* Trim trailing blanks (and the CR of CRLF files) before looking
         for the continuation backslash. Otherwise a '\' followed by
         invisible whitespace silently fails to continue, the
         construct splits into several logical lines, and every
         diagnostic for it lands on a *later* physical line than the
         one the author wrote the directive on. *)
      let raw =
        let len = ref (String.length raw) in
        while
          !len > 0
          &&
          match raw.[!len - 1] with ' ' | '\t' | '\r' -> true | _ -> false
        do
          decr len
        done;
        if !len = String.length raw then raw else String.sub raw 0 !len
      in
      let continued = String.length raw > 0 && raw.[String.length raw - 1] = '\\' in
      let body = if continued then String.sub raw 0 (String.length raw - 1) else raw in
      let toks =
        String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) body)
        |> List.filter (fun s -> s <> "")
      in
      let merged, merged_no =
        match pending with
        | Some p -> (p @ toks, pending_no)
        | None -> (toks, lineno)
      in
      if continued then logical acc (Some merged) merged_no (lineno + 1) rest
      else begin
        let acc =
          if merged = [] then acc
          else { lineno = merged_no; tokens = merged } :: acc
        in
        logical acc None 0 (lineno + 1) rest
      end
  in
  logical [] None 0 1 lines

(* ------------------------------------------------------------------ *)
(* Parsing into a raw model.                                           *)
(* ------------------------------------------------------------------ *)

type names_block = {
  n_line : int;
  signals : string list; (* fanin names @ [output name] *)
  rows : (string * char) list; (* input plane, output bit *)
}

type model = {
  m_name : string;
  m_line : int;  (* line of .model (or 1 when implicit) *)
  m_inputs : (string * int) list;  (* name, declaration line *)
  m_outputs : (string * int) list;
  m_names : names_block list;
}

let parse_model lines =
  let name = ref "model" in
  let model_line = ref 1 in
  let inputs = ref [] in
  let outputs = ref [] in
  let names = ref [] in
  let current : names_block option ref = ref None in
  let close_current () =
    match !current with
    | Some blk -> begin
      names := { blk with rows = List.rev blk.rows } :: !names;
      current := None
    end
    | None -> ()
  in
  let add_row lineno plane bit =
    match !current with
    | None -> fail lineno "cube row outside of .names"
    | Some blk -> current := Some { blk with rows = (plane, bit) :: blk.rows }
  in
  List.iter
    (fun { lineno; tokens } ->
      match tokens with
      | [] -> ()
      | dot :: rest when String.length dot > 0 && dot.[0] = '.' -> begin
        close_current ();
        match dot, rest with
        | ".model", [ n ] ->
          name := n;
          model_line := lineno
        | ".model", _ -> fail lineno ".model expects one name"
        | ".inputs", ins ->
          inputs := !inputs @ List.map (fun i -> (i, lineno)) ins
        | ".outputs", outs ->
          outputs := !outputs @ List.map (fun o -> (o, lineno)) outs
        | ".names", [] -> fail lineno ".names expects at least an output"
        | ".names", signals ->
          current := Some { n_line = lineno; signals; rows = [] }
        | ".end", _ -> ()
        | ".exdc", _ -> fail lineno ".exdc is not supported"
        | ".latch", _ ->
          fail lineno ".latch is not supported (combinational subset only)"
        | ".subckt", _ | ".search", _ ->
          fail lineno "hierarchical BLIF is not supported"
        | directive, _ -> fail lineno "unknown directive %s" directive
      end
      | [ plane; bit ] when !current <> None ->
        if String.length bit <> 1 then fail lineno "bad cube row";
        add_row lineno plane bit.[0]
      | [ bit ] when !current <> None ->
        (* Constant cover for a zero-input .names. *)
        if String.length bit <> 1 then fail lineno "bad constant row";
        add_row lineno "" bit.[0]
      | _ -> fail lineno "unexpected tokens")
    lines;
  close_current ();
  {
    m_name = !name;
    m_line = !model_line;
    m_inputs = !inputs;
    m_outputs = !outputs;
    m_names = List.rev !names;
  }

(* ------------------------------------------------------------------ *)
(* Raw structural view, for static analysis before elaboration.        *)
(* ------------------------------------------------------------------ *)

module Raw = Nano_blif.Blif.Raw

let raw_of_model m =
  let defs =
    List.map
      (fun blk ->
        match List.rev blk.signals with
        | out :: rev_ins ->
          { Raw.line = blk.n_line; output = out; inputs = List.rev rev_ins }
        | [] -> fail blk.n_line "empty .names")
      m.m_names
  in
  {
    Raw.model = m.m_name;
    inputs = m.m_inputs;
    outputs = m.m_outputs;
    defs;
  }

let parse_raw text =
  match raw_of_model (parse_model (tokenize_lines text)) with
  | raw -> Ok raw
  | exception Parse_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Elaboration: signal -> node, with two-level expansion of covers.    *)
(* ------------------------------------------------------------------ *)

let elaborate model =
  let b = Netlist.Builder.create ~name:model.m_name () in
  let env : (string, Netlist.node) Hashtbl.t = Hashtbl.create 64 in
  let defs : (string, names_block) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun blk ->
      match List.rev blk.signals with
      | out :: _ -> begin
        match Hashtbl.find_opt defs out with
        | Some first ->
          (* Reject the second driver outright: silently keeping either
             cover would change the function behind the user's back. *)
          fail blk.n_line
            "signal %s driven by more than one .names (first driver at line \
             %d)"
            out first.n_line
        | None -> Hashtbl.replace defs out blk
      end
      | [] -> fail blk.n_line "empty .names")
    model.m_names;
  List.iter
    (fun (input, line) ->
      if Hashtbl.mem env input then fail line "duplicate input %s" input;
      if Hashtbl.mem defs input then
        fail line "input %s is also driven by a .names block" input;
      Hashtbl.replace env input (Netlist.Builder.input b input))
    model.m_inputs;
  let negations : (Netlist.node, Netlist.node) Hashtbl.t = Hashtbl.create 64 in
  let negate n =
    match Hashtbl.find_opt negations n with
    | Some v -> v
    | None ->
      let v = Netlist.Builder.not_ b n in
      Hashtbl.replace negations n v;
      v
  in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Most-recent-first stack of signals being elaborated, kept alongside
     [in_progress] so a detected cycle can be reported with its witness
     path rather than just the signal it closed on. *)
  let progress_stack : string list ref = ref [] in
  let rec resolve ~line signal =
    match Hashtbl.find_opt env signal with
    | Some n -> n
    | None -> begin
      match Hashtbl.find_opt defs signal with
      | None -> fail line "signal %s is never defined" signal
      | Some blk ->
        if Hashtbl.mem in_progress signal then begin
          let rec take acc = function
            | [] -> acc
            | s :: rest -> if s = signal then s :: acc else take (s :: acc) rest
          in
          let witness = take [ signal ] !progress_stack in
          fail blk.n_line "combinational cycle: %s"
            (String.concat " -> " witness)
        end;
        Hashtbl.replace in_progress signal ();
        progress_stack := signal :: !progress_stack;
        let n = build_cover blk in
        Hashtbl.remove in_progress signal;
        progress_stack := List.tl !progress_stack;
        Hashtbl.replace env signal n;
        n
    end
  and build_cover blk =
    let rev = List.rev blk.signals in
    let out_name, fanin_names =
      match rev with
      | out :: fs -> (out, List.rev fs)
      | [] -> assert false
    in
    ignore out_name;
    let fanins = List.map (resolve ~line:blk.n_line) fanin_names in
    let fanin_arr = Array.of_list fanins in
    let width = Array.length fanin_arr in
    match blk.rows with
    | [] -> Netlist.Builder.const b false
    | (_, bit0) :: _ as rows ->
      let polarity =
        match bit0 with
        | '1' -> true
        | '0' -> false
        | c -> fail blk.n_line "bad output bit %c" c
      in
      List.iter
        (fun (plane, bit) ->
          if String.length plane <> width then
            fail blk.n_line "cube width mismatch";
          let row_pol =
            match bit with
            | '1' -> true
            | '0' -> false
            | c -> fail blk.n_line "bad output bit %c" c
          in
          if row_pol <> polarity then
            fail blk.n_line "mixed ON/OFF-set covers are not supported")
        rows;
      let product plane =
        let literals = ref [] in
        String.iteri
          (fun i c ->
            match c with
            | '1' -> literals := fanin_arr.(i) :: !literals
            | '0' -> literals := negate fanin_arr.(i) :: !literals
            | '-' -> ()
            | c -> fail blk.n_line "bad cube character %c" c)
          plane;
        match !literals with
        | [] -> Netlist.Builder.const b true
        | [ single ] -> single
        | many -> Netlist.Builder.reduce b Gate.And (List.rev many)
      in
      let terms = List.map (fun (plane, _) -> product plane) rows in
      let sum =
        match terms with
        | [ single ] -> single
        | many -> Netlist.Builder.reduce b Gate.Or many
      in
      if polarity then sum else negate sum
  in
  if model.m_outputs = [] then fail model.m_line "model has no outputs";
  List.iter
    (fun (out, line) ->
      let n = resolve ~line out in
      Netlist.Builder.output b out n)
    model.m_outputs;
  Netlist.Builder.finish b

let parse_string text =
  match elaborate (parse_model (tokenize_lines text)) with
  | netlist -> Ok netlist
  | exception Parse_error e -> Error e
