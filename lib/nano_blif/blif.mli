(** Reader and writer for the Berkeley Logic Interchange Format (BLIF),
    the exchange format used by SIS — the tool the paper's benchmarks were
    prepared with.

    Only the combinational subset is supported: [.model], [.inputs],
    [.outputs], [.names] (single-output covers) and [.end]. [.latch] and
    hierarchy ([.subckt]) are rejected with a parse error, since the
    paper's framework covers combinational circuits (sequential treatment
    is its stated future work). *)

type error = { line : int; message : string }
(** Every parse error carries the 1-based physical line of its first
    offending token: directive errors the directive's line, cover errors
    the cover's [.names] line, undefined-signal errors the line that
    referenced the signal, duplicate drivers the second driver's line,
    a repeated output name its second declaration's line. *)

val pp_error : Format.formatter -> error -> unit

(** {1 Reading}

    A text is read by one scan into a {!model}, which the two views
    below share: {!raw} for the structural lints, {!elaborate} for the
    netlist. {!parse_raw} and {!parse_string} are the two compositions,
    and [Nano_lint.Lint] reads a text once and takes both views.

    The scan visits each byte a fixed number of times. Tokens stay
    (offset, length) pairs into the text; signal names are interned to
    dense ids, a string being made only for a name someone asks for;
    each [.names] block is a slice of flat int arrays holding its
    signal ids and, per cover row, the input plane's offset and width
    and the output bit. Lexing: [#] starts a comment, trailing blanks
    and CRs are stripped, a final backslash continues the line, and
    tokens are separated by spaces and tabs only. *)

type model
(** One scanned text: its directives checked, its cover rows not yet
    interpreted, its signals not yet resolved. *)

val read : string -> (model, error) result
(** Scan a text. Fails on the first malformed directive or cover row in
    file order: an unknown or unsupported directive ([.latch],
    [.subckt], [.exdc]), [.model] without exactly one name, [.names]
    without an output, a cube row outside a [.names] block, with more
    than two fields or with an output field longer than one character.
    Cube characters, widths and output bits are checked by
    {!elaborate}. *)

(** {1 Raw structural view}

    The dependency structure of a model {e before} elaboration: which
    signal each [.names] block drives and which signals it reads, with
    declaration line numbers. This is what {!Nano_lint}'s front-end
    passes analyze — combinational cycles, duplicate drivers and
    dangling nets are only representable at this level, because
    {!Nano_netlist.Netlist.t} is a DAG by construction and
    {!elaborate} only builds the output cones. *)

module Raw : sig
  type def = {
    line : int;  (** Line of the [.names] directive. *)
    output : string;  (** The signal the cover drives. *)
    inputs : string list;  (** Signals the cover reads, in order. *)
  }

  type t = {
    model : string;
    inputs : (string * int) list;  (** Name and declaration line. *)
    outputs : (string * int) list;
    defs : def list;  (** All covers in file order, duplicates included. *)
  }
end

val raw : model -> Raw.t
(** The structural view of a scanned model; total. *)

val parse_raw : string -> (Raw.t, error) result
(** [read] then [raw]: directives and cover shapes are checked, but
    cover rows are not interpreted, signals are not resolved and no
    netlist is built — so structurally broken models (cycles, duplicate
    drivers, undefined or dangling signals) still parse and can be
    diagnosed. *)

(** {1 Elaboration} *)

val elaborate : model -> (Nano_netlist.Netlist.t, error) result
(** Build the netlist of a scanned model. Each [.names] cover is
    expanded into two-level AND/OR/NOT logic over the netlist's
    primitive gates; degenerate covers become constants or buffers.
    Inputs keep their names, every other node is unnamed, and the
    netlist is named after the model.

    Errors, when there are several, are reported in this order: a
    second [.names] driver of a signal (reporting both driver lines,
    since last-writer silently winning would change the function);
    then a repeated or driven input; then a model with no outputs;
    then, output by output in declaration order, what resolving its
    cone finds (an undefined signal, a combinational cycle with a
    witness path ["a -> b -> a"], a malformed cover) and, once the
    output resolves, a repeated output name.

    {b Node order} is a contract: Monte-Carlo noise draws follow node
    ids through strashing and mapping, so the same text must always
    number its nodes the same way. Inputs come first, in declaration
    order. Outputs are resolved in declaration order, each signal's
    cover after its fanins, left to right and depth first. Within a
    cover, rows are expanded in order; a row's NOT literals are made as
    its plane is read left to right, then its AND tree, then the OR
    tree over the rows, then the NOT of an OFF-set cover. NOTs are
    shared per node and constants per polarity. Each balanced tree
    pairs neighbours left to right but numbers the pairs of a round
    right to left, as [Nano_netlist.Netlist.Builder.reduce] does. *)

val parse_string : string -> (Nano_netlist.Netlist.t, error) result
(** [read] then [elaborate]. *)

val parse_file : string -> (Nano_netlist.Netlist.t, error) result
(** [parse_string] of a file's contents; raises [Sys_error] when the
    file cannot be read. *)

val to_string : Nano_netlist.Netlist.t -> string
(** Serialize a netlist; every logic gate becomes one [.names] cover. *)

val write_file : string -> Nano_netlist.Netlist.t -> unit
