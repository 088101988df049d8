type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

type error = { pos : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "JSON error at offset %d: %s" e.pos e.message

let max_depth = 512

(* ------------------------------------------------------------------ *)
(* Printing.                                                            *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal that round-trips to the same IEEE double. Integer
   values keep a trailing ".", so they re-parse as Float, not Int. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.float_repr: non-finite float";
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else begin
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let float_or_null f = if Float.is_finite f then Float f else Null

(* Plain runs are blitted whole; only quotes, backslashes and control
   characters are escaped, one by one. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit item)
        items;
      Buffer.add_char buf ']'
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit item)
        members;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing.                                                             *)
(* ------------------------------------------------------------------ *)

exception Fail of error

let fail pos message = raise (Fail { pos; message })

type state = { input : string; mutable pos : int }

(* The parser looks at [st.input.[st.pos]] only after checking
   [at_end]: no [char option] is built per character read. *)
let at_end st = st.pos >= String.length st.input
let current st = String.unsafe_get st.input st.pos
let looking_at st c = st.pos < String.length st.input && current st = c

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let s = st.input in
  let n = String.length s in
  let i = ref st.pos in
  while
    !i < n
    && match String.unsafe_get s !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  st.pos <- !i

let expect st c =
  if at_end st then
    fail st.pos (Printf.sprintf "expected %C, found end of input" c)
  else if current st = c then advance st
  else fail st.pos (Printf.sprintf "expected %C, found %C" c (current st))

let expect_keyword st kw value =
  let n = String.length kw in
  let matches = ref (st.pos + n <= String.length st.input) in
  for i = 0 to n - 1 do
    if !matches && String.unsafe_get st.input (st.pos + i) <> kw.[i] then
      matches := false
  done;
  if !matches then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" kw)

let hex_digit st =
  let digit =
    if at_end st then -1
    else
      match current st with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> -1
  in
  if digit < 0 then fail st.pos "invalid \\u escape: expected a hex digit";
  advance st;
  digit

let hex4 st =
  let a = hex_digit st in
  let b = hex_digit st in
  let c = hex_digit st in
  let d = hex_digit st in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The end of the plain run starting at [i]: the first quote,
   backslash or control character, or the end of the input. *)
let plain_run s i =
  let n = String.length s in
  let i = ref i in
  while
    !i < n
    &&
    let c = String.unsafe_get s !i in
    c <> '"' && c <> '\\' && Char.code c >= 0x20
  do
    incr i
  done;
  !i

(* A plain run ends at a quote or an escape; anything else there is an
   error. *)
let check_run_end s i =
  if i >= String.length s then fail i "unterminated string"
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> ()
    | _ -> fail i "unescaped control character in string"

(* One escape, [st.pos] on its backslash, decoded into [buf]. *)
let decode_escape st buf =
  advance st;
  let escape_pos = st.pos - 1 in
  if at_end st then fail st.pos "unterminated escape";
  let c = current st in
  advance st;
  match c with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
    let cp = hex4 st in
    if cp >= 0xD800 && cp <= 0xDBFF then begin
      (* High surrogate: require a following low surrogate. *)
      if looking_at st '\\' then advance st
      else fail st.pos "lone high surrogate";
      if looking_at st 'u' then advance st
      else fail st.pos "lone high surrogate";
      let lo = hex4 st in
      if lo < 0xDC00 || lo > 0xDFFF then
        fail escape_pos "invalid low surrogate";
      add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else if cp >= 0xDC00 && cp <= 0xDFFF then
      fail escape_pos "lone low surrogate"
    else add_utf8 buf cp
  | c -> fail escape_pos (Printf.sprintf "invalid escape \\%c" c)

(* A string without escapes is one [String.sub]. Otherwise plain runs
   are blitted into a buffer, between escapes decoded one at a time; it
   starts at twice the first run, within what is left of the input, and
   doubles as needed, which costs less than a pre-scan for the closing
   quote would. *)
let parse_string_body st =
  expect st '"';
  let s = st.input in
  let start = st.pos in
  let stop = plain_run s start in
  check_run_end s stop;
  if String.unsafe_get s stop = '"' then begin
    st.pos <- stop + 1;
    String.sub s start (stop - start)
  end
  else begin
    let buf =
      Buffer.create (min (String.length s - start) (64 + (2 * (stop - start))))
    in
    Buffer.add_substring buf s start (stop - start);
    st.pos <- stop;
    while current st <> '"' do
      decode_escape st buf;
      let stop = plain_run s st.pos in
      check_run_end s stop;
      Buffer.add_substring buf s st.pos (stop - st.pos);
      st.pos <- stop
    done;
    advance st;
    Buffer.contents buf
  end

let digits st =
  let s = st.input in
  let n = String.length s in
  let i = ref st.pos in
  while !i < n && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false do
    incr i
  done;
  if !i = st.pos then fail st.pos "expected a digit";
  st.pos <- !i

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if looking_at st '-' then advance st;
  digits st;
  if looking_at st '.' then begin
    is_float := true;
    advance st;
    digits st
  end;
  if looking_at st 'e' || looking_at st 'E' then begin
    is_float := true;
    advance st;
    if looking_at st '+' || looking_at st '-' then advance st;
    digits st
  end;
  let text = String.sub st.input start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value st ~depth =
  if depth > max_depth then fail st.pos "nesting too deep";
  skip_ws st;
  if at_end st then fail st.pos "unexpected end of input";
  match current st with
  | '"' -> String (parse_string_body st)
  | 'n' -> expect_keyword st "null" Null
  | 't' -> expect_keyword st "true" (Bool true)
  | 'f' -> expect_keyword st "false" (Bool false)
  | '-' | '0' .. '9' -> parse_number st
  | '[' ->
    advance st;
    skip_ws st;
    if looking_at st ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        if looking_at st ',' then begin
          advance st;
          items (v :: acc)
        end
        else if looking_at st ']' then begin
          advance st;
          List (List.rev (v :: acc))
        end
        else fail st.pos "expected ',' or ']'"
      in
      items []
    end
  | '{' ->
    advance st;
    skip_ws st;
    if looking_at st '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key_pos = st.pos in
        let k = parse_string_body st in
        if List.mem_assoc k acc then
          fail key_pos (Printf.sprintf "duplicate key %S" k);
        skip_ws st;
        expect st ':';
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        if looking_at st ',' then begin
          advance st;
          members ((k, v) :: acc)
        end
        else if looking_at st '}' then begin
          advance st;
          Obj (List.rev ((k, v) :: acc))
        end
        else fail st.pos "expected ',' or '}'"
      in
      members []
    end
  | c -> fail st.pos (Printf.sprintf "unexpected character %C" c)

let parse input =
  let st = { input; pos = 0 } in
  match parse_value st ~depth:0 with
  | v ->
    skip_ws st;
    if st.pos < String.length input then
      Error { pos = st.pos; message = "trailing garbage after value" }
    else Ok v
  | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Accessors.                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj ms -> List.assoc_opt key ms | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
