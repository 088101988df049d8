type kind =
  | Input
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Majority

let arity_ok kind n =
  match kind with
  | Input | Const _ -> n = 0
  | Buf | Not -> n = 1
  | And | Or | Nand | Nor -> n >= 2
  | Xor | Xnor -> n >= 2
  | Majority -> n >= 3 && n land 1 = 1

let eval kind inputs =
  let n = Array.length inputs in
  let popcount () =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs
  in
  match kind with
  | Input -> invalid_arg "Gate.eval: Input has no combinational semantics"
  | Const b -> b
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And -> popcount () = n
  | Nand -> popcount () <> n
  | Or -> popcount () > 0
  | Nor -> popcount () = 0
  | Xor -> popcount () land 1 = 1
  | Xnor -> popcount () land 1 = 0
  | Majority -> popcount () > n / 2

let eval_word kind inputs =
  let n = Array.length inputs in
  let fold_op op init = Array.fold_left op init inputs in
  match kind with
  | Input -> invalid_arg "Gate.eval_word: Input has no combinational semantics"
  | Const b -> if b then -1L else 0L
  | Buf -> inputs.(0)
  | Not -> Int64.lognot inputs.(0)
  | And -> fold_op Int64.logand (-1L)
  | Nand -> Int64.lognot (fold_op Int64.logand (-1L))
  | Or -> fold_op Int64.logor 0L
  | Nor -> Int64.lognot (fold_op Int64.logor 0L)
  | Xor -> fold_op Int64.logxor 0L
  | Xnor -> Int64.lognot (fold_op Int64.logxor 0L)
  | Majority ->
    (* Per-lane popcount threshold via bitwise majority accumulation:
       lane-wise count of ones kept in binary counters c0..c3 (n <= 15 in
       practice; support any n by folding counters functionally). *)
    let result = ref 0L in
    for lane = 0 to 63 do
      let count = ref 0 in
      for i = 0 to n - 1 do
        if Nano_util.Bits.get inputs.(i) lane then incr count
      done;
      if !count > n / 2 then result := Nano_util.Bits.set !result lane true
    done;
    !result

let is_source = function
  | Input | Const _ -> true
  | Buf | Not | And | Or | Nand | Nor | Xor | Xnor | Majority -> false

let is_logic = function
  | Input | Const _ | Buf -> false
  | Not | And | Or | Nand | Nor | Xor | Xnor | Majority -> true

let name = function
  | Input -> "input"
  | Const false -> "const0"
  | Const true -> "const1"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Majority -> "maj"

let of_name = function
  | "input" -> Some Input
  | "const0" -> Some (Const false)
  | "const1" -> Some (Const true)
  | "buf" -> Some Buf
  | "not" -> Some Not
  | "and" -> Some And
  | "or" -> Some Or
  | "nand" -> Some Nand
  | "nor" -> Some Nor
  | "xor" -> Some Xor
  | "xnor" -> Some Xnor
  | "maj" -> Some Majority
  | _ -> None

let all_logic_kinds = [ Buf; Not; And; Or; Nand; Nor; Xor; Xnor; Majority ]

let code = function
  | Input -> 0
  | Const false -> 1
  | Const true -> 2
  | Buf -> 3
  | Not -> 4
  | And -> 5
  | Or -> 6
  | Nand -> 7
  | Nor -> 8
  | Xor -> 9
  | Xnor -> 10
  | Majority -> 11

let codes = 12

let of_code = function
  | 0 -> Input
  | 1 -> Const false
  | 2 -> Const true
  | 3 -> Buf
  | 4 -> Not
  | 5 -> And
  | 6 -> Or
  | 7 -> Nand
  | 8 -> Nor
  | 9 -> Xor
  | 10 -> Xnor
  | 11 -> Majority
  | c -> invalid_arg (Printf.sprintf "Gate.of_code: %d" c)
