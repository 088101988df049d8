(** Minimal dependency-free JSON codec.

    Used by the evaluation service's wire protocol and the CLI's
    [--format json] output, so both share one codepath. The printer is
    deterministic — object members keep the order they were built in and
    floats use the shortest decimal representation that round-trips — so
    serializing the same value always yields the same bytes, which is
    what lets the service promise byte-identical cached responses.

    The parser is strict: it rejects truncated input, invalid escapes,
    lone surrogates, duplicate object keys, trailing garbage and
    pathological nesting with a positioned error instead of guessing. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

type error = { pos : int; message : string }
(** [pos] is a 0-based byte offset into the input. *)

val pp_error : Format.formatter -> error -> unit

val parse : string -> (t, error) result
(** Parse exactly one JSON value followed only by whitespace.

    Numbers without a fraction, exponent or overflow become [Int];
    everything else numeric becomes [Float]. Escapes are decoded
    ([\uXXXX] to UTF-8, surrogate pairs included). Policy decisions,
    all of which return [Error]: duplicate keys within one object,
    lone/unpaired surrogates, nesting deeper than {!max_depth},
    non-whitespace after the value. *)

val max_depth : int
(** Maximum accepted nesting depth (arrays + objects), 512. *)

val to_string : t -> string
(** Deterministic single-line serialization. Floats print as the
    shortest decimal that parses back to the same IEEE value, always
    containing a ['.'] or ['e'] (integer-valued floats print as
    ["2.0"]) so the value re-parses as [Float], not [Int]. Raises
    [Invalid_argument] on non-finite floats — encode infinities/NaN as
    [Null] upstream. *)

val float_repr : float -> string
(** The float representation used by {!to_string}; exposed so tabular
    writers can match the wire format. Raises [Invalid_argument] on
    non-finite input. *)

val float_or_null : float -> t
(** [Float f] when [f] is finite, [Null] for an infinity or NaN: the
    spelling of a value that may legitimately be non-finite, such as a
    bound that is +∞ at the edge of its domain. *)

(** {1 Accessors}

    Small total helpers for decoding; they return [None] rather than
    raising so protocol code can fold validation into one match. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects too. *)

val to_bool : t -> bool option
val to_int : t -> int option
val to_float : t -> float option
(** [Int] values widen to float. *)

val to_string_opt : t -> string option
val to_list : t -> t list option
