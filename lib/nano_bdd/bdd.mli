(** Reduced ordered binary decision diagrams with hash-consing.

    A {!manager} owns the node store; every operation is relative to one
    manager and nodes from different managers must not be mixed. Variables
    are identified by non-negative integers ordered by their index (index
    0 is the topmost decision). The package provides exactly what the
    energy-bound pipeline needs: Boolean combinators, quantification,
    satisfying-assignment counting, and signal-probability evaluation
    under independent input probabilities. *)

type manager
type node
(** A hash-consed BDD node handle, valid for its creating manager. *)

val manager : ?initial_capacity:int -> unit -> manager
(** Fresh manager. [initial_capacity] sizes the node store (default
    1024, rounded up to a power of two); every table doubles on
    demand. *)

val node_count : manager -> int
(** Total nodes allocated in the manager (including both terminals). *)

val bdd_true : manager -> node
val bdd_false : manager -> node
val of_bool : manager -> bool -> node

val var : manager -> int -> node
(** [var m i] is the function of variable [i]. Requires [i >= 0]. *)

val nvar : manager -> int -> node
(** Complement of {!var}. *)

val bnot : manager -> node -> node
val band : manager -> node -> node -> node
val bor : manager -> node -> node -> node
val bxor : manager -> node -> node -> node
val bnand : manager -> node -> node -> node
val bnor : manager -> node -> node -> node
val bxnor : manager -> node -> node -> node
val bimply : manager -> node -> node -> node

val ite : manager -> node -> node -> node -> node
(** [ite m f g h] is "if f then g else h". *)

val ite_within : manager -> limit:int -> node -> node -> node -> node option
(** [ite_within m ~limit f g h] is [Some (ite m f g h)] when that
    diagram has at most [limit] internal nodes ({!size_within}), and
    [None] otherwise. The apply stops as soon as it has created
    [limit + 1] nodes: every node it creates stays reachable from its
    result, so that many already prove the result too large. An aborted
    call therefore grows {!node_count} by at most [limit + 1]; the nodes
    and cache entries it leaves behind are valid and may be reused.
    Intended for budgeted construction, where an oversized result would
    be thrown away. *)

val equal : node -> node -> bool
(** Structural (hence, by canonicity, semantic) equality within one
    manager. *)

val is_true : manager -> node -> bool
val is_false : manager -> node -> bool

val restrict : manager -> node -> var:int -> value:bool -> node
(** Cofactor with respect to one variable. *)

val exists : manager -> var:int -> node -> node
val forall : manager -> var:int -> node -> node

val compose : manager -> node -> var:int -> node -> node
(** [compose m f ~var g] substitutes [g] for variable [var] in [f]. *)

val support : manager -> node -> int list
(** Variables appearing in the diagram, increasing order. *)

val size : manager -> node -> int
(** Number of distinct internal nodes reachable from the root (terminals
    excluded); a constant has size 0. *)

val size_within : manager -> limit:int -> node -> bool
(** [size_within m ~limit f] is [size m f <= limit], but the traversal
    aborts as soon as [limit + 1] internal nodes have been seen, so the
    cost is bounded by the limit rather than by the diagram. Intended
    for budget checks over possibly oversized diagrams. *)

val sat_count : manager -> nvars:int -> node -> float
(** Number of satisfying assignments over the variable universe
    [0 .. nvars-1]. Requires every support variable to be below
    [nvars]. *)

val probability : manager -> p:(int -> float) -> node -> float
(** [probability m ~p f] is [Pr(f = 1)] when variable [i] is one with
    probability [p i], independently. The workhorse behind exact signal
    probabilities and switching activities. *)

val probability_fn : manager -> p:(int -> float) -> node -> float
(** Partially applied form of {!probability} whose memo persists
    across calls: [let eval = probability_fn m ~p in ...] prices each
    node of the manager at most once, so diagrams with common subgraphs
    share the work. The probability assignment [p] must not change
    between calls through the same evaluator. The value of a node does
    not depend on which evaluator priced it or in what order. *)

val eval : manager -> node -> (int -> bool) -> bool
(** Evaluate under a concrete assignment. *)

val any_sat : manager -> node -> (int * bool) list option
(** A partial satisfying assignment (variable, value) pairs along one
    path to the TRUE terminal, in increasing variable order; variables
    absent from the list are don't-cares. [None] for the constant-false
    function. *)

val of_truth_table : manager -> Nano_logic.Truth_table.t -> node
(** Build from a tabulated function; input [i] becomes variable [i]. *)

val to_truth_table : manager -> arity:int -> node -> Nano_logic.Truth_table.t
(** Tabulate over [2^arity] assignments. Requires support below
    [arity]. *)

val to_dot : manager -> ?name:string -> node -> string
(** Graphviz rendering (solid = high edge, dashed = low edge). *)
