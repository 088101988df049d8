(** Combinational gate-level netlists.

    A netlist is a DAG of {!Gate.kind} nodes. Nodes are referenced by
    dense integer ids assigned in creation order, which is always a valid
    topological order (a gate's fanins have smaller ids). Primary outputs
    are named references to nodes. *)

type t

type node = int
(** Node id; stable for the lifetime of the netlist. *)

type info = {
  kind : Gate.kind;
  fanins : node array;
  name : string option;  (** User-visible net name, if any. *)
}

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : ?name:string -> unit -> t
  val input : t -> string -> node
  (** Declare a named primary input. *)

  val const : t -> bool -> node
  (** Constant drivers are hash-consed (at most one node per polarity). *)

  val add : ?name:string -> t -> Gate.kind -> node list -> node
  (** [add b kind fanins] appends a gate. Raises [Invalid_argument] when
      the arity is wrong for the kind, a fanin id is out of range, or the
      kind is [Input] (use {!input}). *)

  val not_ : t -> node -> node
  val and2 : t -> node -> node -> node
  val or2 : t -> node -> node -> node
  val xor2 : t -> node -> node -> node
  val nand2 : t -> node -> node -> node
  val nor2 : t -> node -> node -> node
  val xnor2 : t -> node -> node -> node
  val maj3 : t -> node -> node -> node -> node

  val reduce : t -> Gate.kind -> node list -> node
  (** Balanced tree of two-input gates of the given kind ([And], [Or],
      [Xor] only). A singleton list is returned as-is. *)

  val output : t -> string -> node -> unit
  (** Declare a named primary output. Output names must be distinct. *)

  val finish : t -> netlist
  (** Freeze. The builder must have at least one output. *)
end

val of_arrays_unchecked :
  name:string ->
  info array ->
  inputs:node array ->
  output_names:string array ->
  output_ids:node array ->
  t
(** A netlist made directly from its arrays, which it takes ownership
    of. Nothing is checked: the caller guarantees what {!Builder}
    enforces — arities, fanins before their gate, every input id of
    kind [Input], distinct output names, at least one output, and
    [output_names] parallel to [output_ids]. For passes that build a
    valid DAG in flat form (strashing, BLIF elaboration); {!validate}
    tests one. *)

val pack : t -> string
(** A compact byte form of the netlist, for holding many netlists
    between uses: per node its kind code, arity, fanins (each as its
    distance back from the node) and name if it has one, in
    variable-length integers and length-prefixed strings, then the
    inputs and the named outputs. A mapped netlist,
    which names only its inputs, takes about 3.5 bytes a node, where
    the netlist itself takes about 69. Raises [Invalid_argument] when a
    fanin does not precede its gate. *)

val unpack : string -> t
(** The netlist {!pack} was given: the same model name, node kinds,
    fanins and names, inputs and outputs, so the same {!digest}.
    Raises [Invalid_argument] on a string {!pack} did not make, when it
    notices: a truncated or overlong string, or an id out of range. *)

(** {1 Observation} *)

val name : t -> string
val node_count : t -> int
(** Total nodes, sources included. *)

val info : t -> node -> info
val kind : t -> node -> Gate.kind
val fanins : t -> node -> node array
val inputs : t -> node list
(** Primary inputs in declaration order. *)

val input_names : t -> string list
val outputs : t -> (string * node) list
(** Primary outputs in declaration order. *)

val input_ids : t -> node array
(** Primary-input node ids in declaration order, precomputed once at
    construction. The returned array is shared — callers must not
    mutate it. Preferred over {!inputs} in per-word simulation code,
    which would otherwise re-traverse the list on every call. *)

val output_ids : t -> node array
(** Primary-output node ids in declaration order; same sharing caveat
    as {!input_ids}. *)

val output_names : t -> string array
(** Primary-output names in declaration order; parallel to
    {!output_ids}. Shared, do not mutate. *)

val input_count : t -> int
(** [List.length (inputs t)] without the traversal. *)

val output_count : t -> int
(** [List.length (outputs t)] without the traversal. *)

val find_input : t -> string -> node
(** Raises [Not_found] for unknown names. *)

val iter : t -> (node -> info -> unit) -> unit
(** Visit every node in topological (id) order. *)

val fold : t -> init:'a -> f:('a -> node -> info -> 'a) -> 'a

val fanout_counts : t -> int array
(** [counts.(n)] is the number of gate fanin slots driven by node [n]
    (output pins not counted). *)

(** {1 Derived structure} *)

val levels : t -> int array
(** [levels.(n)] is the logic depth of node [n]: sources are level 0,
    a gate is 1 + max of its fanin levels. *)

val depth : t -> int
(** Maximum level over primary-output nodes; 0 for source-only
    netlists. *)

val size : t -> int
(** Number of logic gates (sources and [Buf] excluded — buffers are kept
    free, matching the generic-library accounting used in the paper's
    size counts). *)

val average_fanin : t -> float
(** Mean fanin arity over logic gates counted by {!size}; 0 when there are
    none. *)

val max_fanin : t -> int

val transitive_fanin : t -> node list -> (node -> bool)
(** Membership predicate for the union of input cones of the given
    nodes. *)

val eval : t -> (string * bool) list -> (string * bool) list
(** Single-vector functional evaluation; the association list must bind
    every primary input by name. *)

val eval_nodes : t -> bool array -> bool array
(** [eval_nodes t input_values] evaluates every node given values for the
    primary inputs in declaration order; returns a value per node id. *)

val eval_words :
  t ->
  input_words:int64 array ->
  values:int64 array ->
  after:(node -> int64 -> int64) ->
  unit
(** [eval_words t ~input_words ~values ~after] is the word-level
    interpreter: 64 vectors at once, one bit lane each, over
    {!Gate.eval_word}. [input_words] holds one word per primary input in
    declaration order, and [values] one slot per node id, which it
    overwrites. Nodes are visited in id order; a node's clean word is
    its input word, or its gate over the words stored at its fanins, and
    [values.(id)] receives [after id clean]. The hook runs at every
    node, inputs included, so it decides where noise goes or which node
    is inverted: [fun _ w -> w] gives the error-free evaluation. Raises
    [Invalid_argument] when either array has the wrong length. *)

val validate : t -> (unit, string) result
(** Check structural invariants (arities, fanin ordering, output
    references). The builder maintains them; this guards hand-built or
    parsed netlists. *)

val digest : t -> string
(** Stable structural digest: the MD5 hex of a versioned canonical
    serialization covering every node (kind + fanin ids in id order),
    primary-input names in declaration order and primary-output
    name/node pairs in declaration order. The netlist's model {!name}
    is deliberately excluded, so renaming a circuit does not change its
    identity. Two netlists with equal digests are structurally
    identical (same DAG, same interface); the converse holds up to MD5
    collisions. The serialization is versioned ([v1]) — changing it is
    an intentional, test-pinned event, which is what makes the digest
    usable as a persistent content-address (see
    {!Nano_synth.Strash.digest} for the redundancy-invariant form the
    service cache keys on). *)

val to_dot : t -> string
