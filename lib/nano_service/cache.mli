(** Bounded LRU cache with hit/miss/eviction accounting.

    The evaluation service keys entries by content address (the
    circuit's spelling or strashed netlist digest, whichever names all
    the value reads, + canonicalized request parameters), so a lookup
    hit is a proof that the cached value answers the request — no
    invalidation protocol is needed, stale entries are impossible by
    construction, and the only policy left is capacity (least recently
    used goes first). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is the maximum number of entries; [0] disables storage
    (every lookup misses, adds are dropped) which keeps the accounting
    meaningful in cache-off configurations. Raises [Invalid_argument]
    when negative. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes the entry's recency. Counts one hit or one
    miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace, making the entry most recent; evicts the least
    recently used entry when over capacity. Replacement does not count
    as an eviction. *)

val mem : 'a t -> string -> bool
(** Uncounted presence test (no hit/miss bookkeeping, no recency
    refresh); for introspection only. *)

val peek : 'a t -> string -> 'a option
(** Uncounted lookup: like {!find}, but counts no hit or miss and
    leaves recency as it was, so reading an entry on another entry's
    behalf moves none of the statistics or the eviction order. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val stats : 'a t -> stats
