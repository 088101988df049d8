(* The JSON string codec as it stood before strings were decoded and
   encoded in runs — the parser around it included, since decoding is
   what it is tested through — kept verbatim as the reference that
   test_json compares [Nano_util.Json] against, error offsets and
   messages included. *)

type t = Nano_util.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

type error = Nano_util.Json.error = { pos : int; message : string }

let max_depth = Nano_util.Json.max_depth
let float_repr = Nano_util.Json.float_repr

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
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

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.pos (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail st.pos (Printf.sprintf "expected %C, found end of input" c)

let expect_keyword st kw value =
  let n = String.length kw in
  if
    st.pos + n <= String.length st.input
    && String.sub st.input st.pos n = kw
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" kw)

let hex_digit st =
  match peek st with
  | Some ('0' .. '9' as c) ->
    advance st;
    Char.code c - Char.code '0'
  | Some ('a' .. 'f' as c) ->
    advance st;
    Char.code c - Char.code 'a' + 10
  | Some ('A' .. 'F' as c) ->
    advance st;
    Char.code c - Char.code 'A' + 10
  | _ -> fail st.pos "invalid \\u escape: expected a hex digit"

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

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      let escape_pos = st.pos - 1 in
      (match peek st with
      | None -> fail st.pos "unterminated escape"
      | Some c ->
        advance st;
        (match c with
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
            if peek st = Some '\\' then advance st
            else fail st.pos "lone high surrogate";
            (match peek st with
            | Some 'u' -> advance st
            | _ -> fail st.pos "lone high surrogate");
            let lo = hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then
              fail escape_pos "invalid low surrogate";
            add_utf8 buf
              (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then
            fail escape_pos "lone low surrogate"
          else add_utf8 buf cp
        | c -> fail escape_pos (Printf.sprintf "invalid escape \\%c" c)));
      loop ()
    | Some c when Char.code c < 0x20 ->
      fail st.pos "unescaped control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  let digits () =
    let n0 = st.pos in
    while match peek st with Some '0' .. '9' -> advance st; true | _ -> false do
      ()
    done;
    if st.pos = n0 then fail st.pos "expected a digit"
  in
  digits ();
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub st.input start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value st ~depth =
  if depth > max_depth then fail st.pos "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '"' -> String (parse_string_body st)
  | Some 'n' -> expect_keyword st "null" Null
  | Some 't' -> expect_keyword st "true" (Bool true)
  | Some 'f' -> expect_keyword st "false" (Bool false)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List (List.rev (v :: acc))
        | _ -> fail st.pos "expected ',' or ']'"
      in
      items []
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
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
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail st.pos "expected ',' or '}'"
      in
      members []
    end
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %C" c)

let parse input =
  let st = { input; pos = 0 } in
  match parse_value st ~depth:0 with
  | v ->
    skip_ws st;
    if st.pos < String.length input then
      Error { pos = st.pos; message = "trailing garbage after value" }
    else Ok v
  | exception Fail e -> Error e
