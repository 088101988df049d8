(** Gate kinds of the generic technology library.

    The paper's device model treats "gate" and "device" as the same
    entity; every kind below is a single switching device whose output may
    be corrupted by the symmetric error channel. *)

type kind =
  | Input  (** Primary input; no fanins. *)
  | Const of bool  (** Constant driver; no fanins. *)
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Majority  (** Odd-arity majority; the voter primitive. *)

val arity_ok : kind -> int -> bool
(** Whether a gate of this kind may have the given number of fanins. *)

val eval : kind -> bool array -> bool
(** Combinational semantics. [Input] gates cannot be evaluated this way
    and raise [Invalid_argument]. *)

val eval_word : kind -> int64 array -> int64
(** 64-way bit-parallel semantics (each bit lane is an independent
    evaluation). Raises like {!eval} for [Input]. *)

val is_source : kind -> bool
(** True for [Input] and [Const _]: gates with no logic fanins. *)

val is_logic : kind -> bool
(** The error-prone kinds of the paper's device model (Fig. 1): every
    kind but [Input], [Const _] and [Buf]. Sources and buffers are
    error-free, so these are the gates {!Netlist.size} counts and the
    noisy simulators inject noise into. *)

val name : kind -> string
val of_name : string -> kind option
(** Inverse of {!name} for non-parameterized kinds plus ["const0"] /
    ["const1"]. *)

val all_logic_kinds : kind list
(** Every kind except [Input] and [Const _]; used by exhaustive tests. *)

val code : kind -> int
(** A dense integer code per kind, in [0, codes); [Const false] and
    [Const true] get distinct codes. For flat tables keyed on kinds. *)

val codes : int
(** The number of codes. *)

val of_code : int -> kind
(** Inverse of {!code}; raises [Invalid_argument] outside [0, codes). *)
