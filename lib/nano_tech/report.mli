(** Absolute energy/area/delay report for a netlist under a technology
    pack, next to the paper's normalized bounds.

    The normalized pipeline ({!Nano_bounds.Benchmark_eval}) answers
    "how many times worse than the error-free baseline"; this module
    multiplies the baseline back in. Switching energy is the per-gate
    weighted-activity sum [Σ E_kind(arity) · sw(node)] with activities
    from {!Nano_sim.Activity.monte_carlo} at the pinned defaults (seed
    0x5eed, 4096 vectors) so CLI and service produce byte-identical
    reports. Leakage energy integrates the pack's per-gate leakage
    power over the critical-path delay computed by
    {!Nano_netlist.Timing.analyze} under the pack's per-gate [T].
    Buffers and sources are free, matching [Netlist.size].

    The resulting leakage share replaces the paper's default λ0 = 0.5
    in Theorem 3 / Corollary 2, and each bound row is re-expressed in
    joules ([bound_energy_j = energy_ratio · total_energy_j]) at the
    effective device-error level [max ε ε_intrinsic]. *)

type gate_row = {
  kind : Nano_netlist.Gate.kind;
  count : int;  (** Logic gates of this kind (buffers excluded). *)
  switching_j : float;  (** Activity-weighted switching energy. *)
  leakage_w : float;
  area_m2 : float;
}

type bound_row = {
  epsilon : float;  (** Requested device-error level. *)
  effective_epsilon : float;  (** {!Pack.effective_epsilon}. *)
  energy_ratio : float;  (** Corollary 2's E/E0 at the pack's λ0. *)
  bound_energy_j : float;  (** [energy_ratio *. total_energy_j]. *)
  leakage_ratio_change : float;  (** Theorem 3's W/W0 at the pack λ0. *)
}

type t = {
  pack_name : string;
  pack_digest : string;  (** {!Pack.digest} — the cache-key component. *)
  gates : gate_row list;  (** Kinds present, in {!Pack.kind_order}. *)
  switching_j : float;
  leakage_w : float;  (** Total leakage power. *)
  leakage_j : float;  (** [leakage_w *. critical_path_s]. *)
  total_j : float;  (** [switching_j +. leakage_j]. *)
  area_m2 : float;
  critical_path_s : float;
  critical_output : string;
  leakage_share : float;  (** [leakage_j /. total_j] (0 when total 0). *)
  bounds : bound_row list;  (** One row per requested ε, input order. *)
  diagnostics : Nano_lint.Diagnostic.t list;
      (** [unmapped-gate-kind] errors, one per affected node, sorted
          with {!Nano_lint.Diagnostic.compare}. Unmapped gates
          contribute zero; the report never raises. *)
}

val analyze :
  ?delta:float ->
  ?epsilons:float list ->
  ?node_activity:float array ->
  pack:Pack.t ->
  profile:Nano_bounds.Profile.t ->
  Nano_netlist.Netlist.t ->
  t
(** Defaults: [delta = Benchmark_eval.paper_delta],
    [epsilons = Benchmark_eval.paper_epsilons]. [profile] must be the
    profile of the same (mapped) netlist — callers reuse the one the
    normalized rows were computed from.

    [node_activity] substitutes a caller-supplied per-node switching
    activity (indexed by node id, length [Netlist.node_count]) for the
    pinned-seed Monte-Carlo estimate — the static analyzer's
    [Nano_static.Static.node_activity_estimate] is the intended
    source. Omitting it keeps reports byte-identical to earlier
    releases. *)

val to_json : t -> Nano_util.Json.t
(** Deterministic encoding shared by [--format json] and the service
    reply ([pack]/[gates]/[totals]/[bounds], plus [diagnostics] only
    when non-empty). *)

val pp : Format.formatter -> t -> unit
(** The human table: per-kind rows, totals with engineering-notation
    units, then the bound rows in joules. *)
