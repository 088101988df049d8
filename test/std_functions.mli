(** Reference Boolean functions for the logic, BDD and two-level
    minimization tests (parity is the family for which every bound is
    tight). *)

val parity : arity:int -> Nano_logic.Truth_table.t
(** XOR of all inputs; sensitivity equals [arity]. *)

val majority : arity:int -> Nano_logic.Truth_table.t
(** One when more than half of the inputs are one. Requires odd
    [arity]. *)

val and_all : arity:int -> Nano_logic.Truth_table.t
val or_all : arity:int -> Nano_logic.Truth_table.t

val mux : select_bits:int -> Nano_logic.Truth_table.t
(** [mux ~select_bits] has [select_bits + 2^select_bits] inputs: selects
    [0 .. select_bits-1] pick one of the remaining data inputs. *)

val adder_sum_bit : width:int -> bit:int -> Nano_logic.Truth_table.t
(** Bit [bit] of the sum of two [width]-bit unsigned operands (inputs:
    operand a = inputs [0..width-1], operand b = inputs
    [width..2*width-1]). Requires [0 <= bit < width] and small widths
    ([2*width <= 20]). *)

val adder_carry_out : width:int -> Nano_logic.Truth_table.t
(** Carry out of the same addition. *)

val comparator_greater : width:int -> Nano_logic.Truth_table.t
(** One when operand a exceeds operand b (same input layout as
    {!adder_sum_bit}). *)

val threshold : arity:int -> k:int -> Nano_logic.Truth_table.t
(** One when at least [k] inputs are one. *)
