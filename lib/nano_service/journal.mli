(** Crash-safe persistence for the content-addressed response cache.

    An append-only journal of [(key, value)] string records. Each
    record is framed as

    {v
      magic "NBJ1" | key length (u32 BE) | value length (u32 BE)
      | MD5(key ^ value) (16 bytes) | key bytes | value bytes
    v}

    so recovery can both detect a torn tail (the crash happened mid
    [write]) and corruption (checksum mismatch). {!load} replays the
    longest valid prefix in append order — replaying into an LRU
    reproduces the recency order writes happened in — then truncates
    the file after it, so one torn record never poisons future
    appends. A re-added key simply appends a newer record; replay
    order makes the last write win. *)

type t

exception Not_a_journal of string
(** Raised, with the path, for a non-empty file whose first bytes are
    neither the record magic nor a prefix of it (a torn first record):
    a file that was never a journal, which recovery must not
    truncate. *)

val load : path:string -> (key:string -> value:string -> unit) -> t
(** Open (creating if absent) the journal at [path], replay every
    valid record through the callback, truncate any torn or corrupt
    tail, and return a handle positioned for appending. Raises
    {!Not_a_journal}, leaving the file as it was, when [path] is not a
    journal; otherwise [Sys_error]/[Unix.Unix_error] only for
    environmental failures (unreachable path, permissions) — never for
    bad file contents. *)

val check : path:string -> unit
(** Raises {!Not_a_journal} when {!load} would refuse [path]; an
    absent file passes. Reads the file and changes nothing. *)

val append : t -> key:string -> value:string -> unit
(** Append one record and flush it to the OS. A record whose framed
    size exceeds {!max_record_bytes} is silently skipped (the cache
    entry just stays memory-only). *)

val entries_recovered : t -> int
(** Records successfully replayed by {!load}. *)

val bytes_truncated : t -> int
(** Bytes of torn/corrupt tail discarded by {!load} (0 on a clean
    boot). *)

val appended : t -> int
(** Records appended through this handle since {!load}. *)

val path : t -> string

val close : t -> unit

val max_record_bytes : int
(** Upper bound on one framed record (64 MiB); larger lengths in a
    header are treated as corruption during recovery. *)
