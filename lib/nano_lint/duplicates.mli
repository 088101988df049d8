(** Pass 5: structural-duplicate subcone detection.

    Classifies every node by a bottom-up structural key (gate kind plus
    the classes of its fanins, order-insensitive for the symmetric
    kinds) — two nodes in one class root structurally identical
    subcones, exactly the redundancy {!Nano_synth.Strash.run} would
    share. Duplicated cones inflate S0 and the energy bounds without
    adding function; each maximal duplicated class is reported once,
    tagged with the strash digest of its lowest member's subcone
    ({!Nano_synth.Strash.cone_digest}, read from the netlist itself) so
    reports are content-addressable. *)

val pass : string
(** ["dup"]. *)

val run :
  Nano_netlist.Netlist.t -> reachable:bool array -> Diagnostic.t list
(** [duplicate-subcone] warnings, one per maximal class of two or more
    reachable structurally-identical logic gates. Classes whose members
    all feed bigger duplicated classes are subsumed (only the outermost
    duplication is reported). *)
