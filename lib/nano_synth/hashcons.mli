(** A flat, reusable hash-consed DAG store.

    Nodes get dense ids in creation order. A node is a small integer
    tag plus an ordered row of integer operands (fanin ids, or whatever
    the caller keys on), all held in int arrays; {!share} returns the
    existing node for a (tag, operands) pair it has seen, so equal keys
    get one id. Emptying the store is O(1): the table is stamped with an
    epoch, not cleared, so one store can serve many small runs. It does
    not grow: {!reset} sizes it for the run ahead, and going past that
    raises [Invalid_argument]. *)

type t

val create : unit -> t
(** An empty store with no room; {!reset} it before use. *)

val reset : t -> nodes:int -> operands:int -> unit
(** Forget every node and make room for [nodes] nodes holding
    [operands] operands in all. *)

val add : t -> int -> int array -> int -> int
(** [add t tag key len] appends a node with operands
    [key.(0) .. key.(len - 1)] that {!share} never returns: every call
    makes a new node (a primary input, say). Returns its id. *)

val share : t -> int -> int array -> int -> int
(** Like {!add}, but returns the node {!share} made earlier with the
    same tag and operands, if any. *)

val room : int array -> int -> int array
(** [room a n] is [a] when it holds at least [n] elements, else a fresh
    zeroed array of at least [max n (2 * length a)]: scratch arrays
    sized this way reallocate O(log n) times across growing runs. *)

val count : t -> int
(** Nodes since the last {!reset}. *)

val tag : t -> int -> int
val arity : t -> int -> int

val operand : t -> int -> int -> int
(** [operand t i j] is node [i]'s operand [j]. *)

val sort : int array -> int -> unit
(** [sort key len] sorts [key.(0 .. len - 1)] ascending in place: the
    canonical operand order of a commutative node. *)
