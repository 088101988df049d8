(** The persistent evaluation daemon behind [nanobound serve].

    One service value holds the warm state worth keeping resident
    between requests: the content-addressed result caches (optionally
    backed by an on-disk {!Journal}), the metrics registry, and
    (transitively) the {!Nano_util.Par} domain pool and
    {!Nano_netlist.Compiled} kernel memo that cold one-shot CLI runs
    rebuild from scratch every time.

    Request handling is transport-independent: {!handle_line} maps one
    request line to one reply line, {!handle_batch} additionally
    coalesces duplicate in-flight requests within the batch, and the
    transports ({!run_stdio}, {!serve_unix}, {!serve_tcp},
    {!serve_listening}) are drivers over it. Replies are
    deterministic: a cached reply is the byte-identical line the cold
    evaluation produced, at any [jobs] count, any [workers] count, on
    any transport — and across daemon restarts when a journal is
    configured. A cached [analyze] or [profile] reply that carries a
    lint preflight is held as a head and that preflight's text, one
    string shared by every cached reply of the circuit's spelling, so a
    revisit at a new δ reuses it instead of linting the circuit again.
    A cached profile keeps the netlist it measured, packed
    ({!Nano_netlist.Netlist.pack}), and its activity run's one-counts,
    a few bytes a node: a revisit priced by a technology pack, or one
    whose ε list is new, unpacks that netlist instead of parsing and
    mapping the circuit again, and no tech report simulates.

    Failure semantics: every per-request failure — unparseable JSON,
    unknown circuit, BLIF payload errors, invalid scenario, timeout,
    oversized input, admission-control rejection — becomes a
    structured [{"ok":false,...}] reply, never a daemon death. *)

type config = {
  jobs : int;  (** Domains for sweep/analyze grids (default: all). *)
  cache_capacity : int;
      (** LRU entries per cache (responses, profiles, circuit
          identities and measured grids); 0 disables caching. A profile
          entry holds its measured netlist packed and its activity
          counts, a few bytes a node, never a [Netlist.t]. A circuit
          identity also records where its spelling's lint preflight
          is: clean, or held by a cached reply, never a copy of the
          text. Default 256. *)
  max_request_bytes : int;
      (** Upper bound on one request line (or HTTP body); longer input
          draws an [oversized] error. On socket transports the rest of
          an over-long line is discarded and the connection stays
          usable. Default 8 MiB. *)
  default_timeout_ms : int option;
      (** Applied when a request carries no [timeout_ms]. Default
          [None] (no limit). Timeouts are enforced cooperatively at
          evaluation stage boundaries, so a reply may arrive slightly
          after the deadline, but always as a structured [timeout]
          error. *)
  trace : bool;
      (** Log request lifecycles (kind, cache disposition, latency) to
          stderr. Default false. *)
  journal : string option;
      (** Path of the append-only response-cache journal. Warm replies
          survive restarts: on boot the valid prefix is replayed into
          the response cache and any torn tail is truncated; a file
          that is not a journal is refused (see {!create}). With
          [workers > 0] each worker persists to [PATH.shardN] instead
          (the master never evaluates). Default [None]. *)
  workers : int;
      (** Pre-forked evaluation worker processes. 0 (default) keeps
          evaluation in-process. With N > 0 the socket transports fork
          N workers up front and route each request to a worker chosen
          by its content address, so repeated requests always land on
          the same warm cache. Workers must be forked before any
          evaluation has spawned {!Nano_util.Par} domains. *)
  max_clients : int;
      (** Connection cap for the socket transports; connections beyond
          it are answered with the structured [overloaded] error and
          closed. Default 960 (headroom under [select]'s FD_SETSIZE). *)
  max_pending : int;
      (** Bound on requests admitted but not yet answered across all
          connections; beyond it requests are shed with [overloaded]
          replies instead of queueing without bound. Default 1024. *)
  max_reply_bytes : int;
      (** Per-connection output-buffer bound: a peer that stops
          reading its replies is disconnected once this many bytes are
          buffered for it, so one slow reader cannot pin daemon
          memory. Default 64 MiB. *)
}

val default_config : unit -> config

type t

val create : ?config:config -> unit -> t
(** Create a service. When [config.journal] names a file (and
    [workers = 0]), the journal is opened — created if absent — and
    its valid prefix replayed into the response cache before the first
    request runs. Raises {!Journal.Not_a_journal} when that file, or
    with [workers > 0] one of its [PATH.shardN] files, is not a
    journal; the file is left as it was. *)

val close : t -> unit
(** Close the journal handle, if any. Appends are flushed per record,
    so this is hygiene rather than durability. *)

val sweep_series :
  jobs:int -> string -> Nano_bounds.Figures.series list option
(** The data series a [sweep] request answers with: [fig2] .. [fig6],
    [omega] (the ω-model ablation) or [delta] (measured δ̂ on c17, rca8
    and parity16, one batched Monte-Carlo pass per circuit); [None] for
    any other name. [nanobound sweep] prints the same series. *)

val handle_line : t -> string -> string
(** Evaluate one raw request line into one reply line (no trailing
    newline). Never raises. *)

val handle_batch : t -> string list -> string list
(** Like {!handle_line} over a batch collected in one scheduling round,
    preserving order, but duplicate requests (same content-addressed
    key) are evaluated once and the reply bytes fanned out; the
    duplicates count as [coalesced] in the stats. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] request has been handled; transports exit
    their loop after flushing the pending replies. *)

val run_stdio : t -> in_channel -> out_channel -> unit
(** Serve newline-delimited JSON over a channel pair until EOF or
    shutdown. Lines exceeding [max_request_bytes] are answered with an
    [oversized] error and the rest of the oversized line is skipped. *)

val serve_listening : t -> Unix.file_descr -> unit
(** Serve an already bound-and-listening socket (Unix-domain or TCP)
    until shutdown, then close every connection (the listening socket
    itself stays open — the caller owns it). This is the daemon's
    event loop:

    - Nonblocking throughout: reads, writes and accepts never block;
      [EINTR] is retried and [EWOULDBLOCK] yields to [select].
    - Replies are buffered per connection, bounded by
      [max_reply_bytes]; a slow reader is disconnected rather than
      allowed to block other clients.
    - Accepts drain the whole backlog each round, surviving
      [ECONNABORTED] races and descriptor exhaustion.
    - Each connection speaks either newline-delimited JSON or minimal
      HTTP/1.1 ([POST] with [Content-Length], keep-alive), decided by
      the first byte received.
    - Admission control: at most [max_pending] requests are in flight;
      excess requests get [overloaded] errors immediately.
    - With [workers > 0], requests are routed to pre-forked worker
      processes sharded by content address; replies to one connection
      are re-sequenced into request order. A dead worker fails its
      in-flight requests with [internal_error] replies and its shard
      routes errors thereafter; the daemon itself stays up. *)

val serve_unix : t -> socket_path:string -> unit
(** Bind a Unix-domain stream socket (replacing any stale file at the
    path) and run {!serve_listening}; the socket file is removed on
    exit. *)

val serve_tcp : t -> host:string -> port:int -> unit
(** Bind a TCP socket ([SO_REUSEADDR]) and run {!serve_listening}. *)
