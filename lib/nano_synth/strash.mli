(** Structural hashing with constant folding and local identity
    simplification.

    Rebuilds a netlist so that structurally identical gates are shared,
    constants are propagated, trivial identities are removed
    ([x & x → x], [x ^ x → 0], double negation, buffers) and logic
    outside the output cones is dropped. Primary input declarations and
    output names/order are preserved; the result computes the same
    functions.

    One engine does all of it on flat integer arrays: gates are
    hash-consed on their kind code and sorted fanin ids
    ({!Hashcons}), constants and the complement links live in int
    arrays, and dead nodes are swept by one reverse mark and one
    compaction. Only the finished result becomes a
    {!Nano_netlist.Netlist.t}. *)

val run : Nano_netlist.Netlist.t -> Nano_netlist.Netlist.t

val sweep : Nano_netlist.Netlist.t -> Nano_netlist.Netlist.t
(** Just the dead-logic removal: copy keeping only the output cones
    (primary inputs always survive, first, in declaration order). Used
    as the final step of other passes too. *)

val digest : Nano_netlist.Netlist.t -> string
(** [Nano_netlist.Netlist.digest (run netlist)], serialized straight
    from the engine's arrays: the content address of the circuit's
    strashed form. Because {!run} shares structurally identical gates,
    folds constants and drops dead logic, netlists that differ only by
    such redundancy (or by model name) map to the same digest — this
    is the key the evaluation service's result cache uses. Stable
    across processes and OCaml versions; changes only when the
    canonical serialization version or the strash rewrite rules change,
    both of which are pinned by regression tests. *)

type scratch
(** Reusable engine state. It grows to the largest netlist it has
    seen and is emptied by stamping, not clearing, so many small runs
    over one netlist cost no allocation after the first. Not safe to
    share between domains. *)

val scratch : unit -> scratch

val cone_digest :
  scratch -> Nano_netlist.Netlist.t -> Nano_netlist.Netlist.node -> string
(** [cone_digest s netlist root] is the {!digest} of [root]'s input
    cone copied out as a standalone netlist: one post-order walk from
    [root], fanins in order, the cone's primary inputs declared in
    discovery order under their names (["n<id>"] if unnamed), its gates
    in post-order, one output named ["cone"]. Read from [netlist]
    directly; no netlist is built. *)
