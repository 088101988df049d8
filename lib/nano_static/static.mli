(** Static reliability analysis: error-propagation bounds without
    Monte Carlo.

    A single topological dataflow pass over the elaborated netlist
    computes, per node, a sound interval for every quantity the
    simulators estimate empirically:

    - {b signal probability} [Pr(node = 1)] on the error-free circuit —
      exact via a shared ROBDD ({!Nano_bdd.Bdd.probability}) while the
      node's diagram stays under the {e cone budget}, and a
      Parker–McCluskey-style interval (Fréchet bounds per gate kind)
      once it does not;
    - {b error probability} [Pr(noisy <> clean)] under the von Neumann
      per-gate channel ε — exact on tree regions by replaying
      {!Nano_faults.Reliability.noisy_gate}'s joint-pair propagation
      (legitimate exactly where fanin cones are disjoint), and a
      conservative union-bound interval across reconvergent fanout
      where any correlation is possible;
    - {b switching activity} [2 q (1 - q)] of the noisy signal, the
      static stand-in for the pinned-seed Monte-Carlo activity the
      technology reports integrate;
    - an {b error-criticality} weight per node — the first-order
      sensitivity of the output error to that gate's ε, obtained by a
      reverse sweep attenuating by [(1 - 2 ε)] per traversed channel —
      which seeds selective-redundancy voter-class assignments.

    Soundness contract (the bench series checks it on every circuit):
    each true probability lies inside its interval, so any Monte-Carlo
    estimate falling outside a static interval by more than sampling
    noise indicts the kernel, not the analysis. On fanout-free circuits
    every interval collapses to a point that matches
    {!Nano_faults.Reliability.analyze} exactly. *)

type interval = { lo : float; hi : float }
(** A closed subinterval of [0, 1] with [lo <= hi]. *)

val point : float -> interval
val is_point : interval -> bool
val width : interval -> float

val contains : interval -> ?slack:float -> float -> bool
(** [contains iv ~slack x] is [lo - slack <= x <= hi + slack]; [slack]
    defaults to 0. The bench containment check widens by the
    Agresti–Coull half-width of the Monte-Carlo point. *)

type node_result = {
  probability : interval;  (** Error-free [Pr(node = 1)]. *)
  error : interval;  (** [Pr(noisy <> clean)]. *)
  activity : interval;  (** Noisy toggle rate [2 q (1 - q)]. *)
  exact : bool;
      (** The error interval is a point computed by exact joint-pair
          propagation (tree region), not a conservative bound. *)
  criticality : float;
      (** First-order sensitivity of the summed output error to this
          gate's ε; 0 for sources and for gates no output observes. *)
}

type t = {
  epsilon : float;  (** Mean ε over logic gates (as in {!Nano_faults.Noisy_sim}). *)
  input_probability : float;
  cone_budget : int;
  nodes : node_result array;  (** Indexed by node id. *)
  per_output_error : (string * interval) list;
      (** Per primary output, declaration order. *)
  any_output_error : interval;
      (** [max_o lo_o  <=  Pr(any output wrong)  <=  min 1 (sum_o hi_o)]. *)
  average_gate_activity : interval;
      (** Mean activity over logic gates ([Netlist.size] set). *)
  exact_nodes : int;  (** Nodes whose [exact] flag is set. *)
  bdd_nodes : int;  (** Nodes whose signal probability came from a BDD. *)
}

val default_cone_budget : int
(** 512 BDD nodes. Every And/Or/Xor fold step, and the outermost
    apply of a Majority, is a bounded apply
    ({!Nano_bdd.Bdd.ite_within}) that gives up once it has built
    budget + 1 nodes, so the exact-probability attempt can never blow
    up, and a rejected attempt costs about as much as the budget. *)

val analyze :
  ?input_probability:float ->
  ?cone_budget:int ->
  ?epsilon_of:(Nano_netlist.Netlist.node -> float) ->
  epsilon:float ->
  Nano_netlist.Netlist.t ->
  t
(** [analyze ~epsilon netlist] runs the full static pass. Noise is
    injected exactly where the simulators inject it: every logic gate
    output ([Netlist.size] set); sources and buffers are error-free.
    [epsilon_of] (the PR 9 heterogeneous model) overrides ε per logic
    gate; every consulted value must lie in [[0, 1/2]], as must
    [epsilon]. [input_probability] defaults to 1/2, [cone_budget] to
    {!default_cone_budget}. Deterministic: no randomness anywhere. *)

val ranked_gates : t -> Nano_netlist.Netlist.t -> Nano_netlist.Netlist.node list
(** Logic gates sorted by descending criticality (ties by ascending
    id) — the static counterpart of
    {!Nano_faults.Criticality.ranked_gates}, and the default
    node-ordering for voter-class assignment. *)

val node_activity_estimate : t -> float array
(** Per-node midpoint of the activity interval — the pointwise static
    substitute for the pinned-seed Monte-Carlo activity vector consumed
    by [Nano_tech.Report]. *)

val vacuous : interval -> bool
(** An error interval that has collapsed to [hi >= 1/2]: it no longer
    excludes the fair coin, so it carries no reliability information. *)

val pass : string
(** Diagnostic pass id, ["static"]. *)

val diagnostics : t -> Nano_netlist.Netlist.t -> Nano_lint.Diagnostic.t list
(** Deterministic lint-style findings, sorted with
    {!Nano_lint.Diagnostic.compare}: a warning per primary output whose
    error bound is {!vacuous}, and a warning per {e collapse frontier}
    node (a vacuous node all of whose fanins are still informative) —
    the place to spend redundancy or a bigger cone budget. *)

val to_json :
  ?top:int -> t -> Nano_netlist.Netlist.t -> Nano_util.Json.t
(** Deterministic encoding shared by [--format json] and the service
    reply: model/digest/parameters, interval summary per output, the
    top-[top] (default 16) criticality ranking, and [diagnostics] only
    when non-empty. *)

val pp : ?top:int -> Format.formatter -> t * Nano_netlist.Netlist.t -> unit
(** Human table: per-output bounds, exactness accounting, activity and
    the criticality head. *)
