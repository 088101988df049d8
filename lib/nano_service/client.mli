(** Client side of the evaluation service: connect to a daemon over a
    Unix-domain socket or TCP and exchange newline-delimited JSON
    lines. Backs the [nanobound request] subcommand. *)

type endpoint =
  | Unix_socket of string  (** Socket file path. *)
  | Tcp of string * int  (** Host (name or literal) and port. *)

val endpoint_to_string : endpoint -> string

type t

val connect :
  ?retries:int -> ?retry_interval:float -> endpoint -> (t, string) result
(** Connect, retrying while the daemon is still binding (socket file
    absent, connection refused) or restarting (connection reset
    mid-handshake) — and resuming cleanly when a signal interrupts the
    attempt or the retry pause. Defaults: 100 retries at 0.05 s
    intervals (≈5 s). *)

val request_line : t -> string -> (string, string) result
(** Send one request line (newline appended) and read one reply line. *)

val close : t -> unit
