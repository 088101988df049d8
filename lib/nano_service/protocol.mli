(** Wire protocol of the evaluation service.

    Newline-delimited JSON: one request object per line in, one reply
    object per line out, in order. This module is a pure codec — typed
    requests/replies to and from {!Nano_util.Json} values — shared by
    the daemon, the [nanobound request] client and the CLI's
    [--format json] output, so every surface emits identical records.

    Reply envelope: [{"ok":true,"result":...}] on success,
    [{"ok":false,"error":{"code":...,"message":...}}] on failure.
    Replies carry no request id and no cache markers: correlation is
    by order, and cached replies are byte-identical to cold ones by
    design (cache visibility lives in the [stats] request instead). *)

type circuit =
  | Named of string  (** Built-in benchmark, as listed by [nanobound suite]. *)
  | Blif of string  (** Inline BLIF text. *)

type tech_spec =
  | Tech_named of string  (** Built-in pack ({!Nano_tech.Builtin}). *)
  | Tech_inline of Nano_util.Json.t
      (** An inline pack object, validated by {!Nano_tech.Loader}. Both
          spellings of the same pack share one canonical digest, so
          they hit the same cache entry. *)

type request =
  | Ping
  | Stats
  | Shutdown
  | Bounds of Nano_bounds.Metrics.scenario
  | Profile of { circuit : circuit; no_map : bool }
  | Analyze of {
      circuit : circuit;
      delta : float;
      leakage_share0 : float;
      epsilons : float list;
      no_map : bool;
      measure : bool;
          (** When true, the reply's rows also carry measured
              (Monte-Carlo) δ̂ and activity from one batched multi-ε
              simulation pass. Decodes as [false] when absent, so old
              clients are unaffected. *)
      vectors : int;
          (** Monte-Carlo budget for [measure] (default 4096). *)
      tech : tech_spec option;
          (** When present, the reply also carries a ["tech"] block —
              {!Nano_tech.Report.to_json}'s absolute energy/area/delay
              record. Absent for old clients, whose replies stay
              byte-identical to the pre-tech protocol. *)
    }
  | Sweep of { figure : string }
  | Lint of {
      circuit : circuit;
      max_fanin : int;  (** Fan-in audit bound k (default 3). *)
      epsilon : float;  (** Operating point for pass 4/6 (default 0.01). *)
      delta : float;  (** Operating point for pass 4/6 (default 0.01). *)
    }
      (** Static-analysis report ({!Nano_lint.Lint}) for a circuit; the
          reply carries {!Nano_lint.Lint.report_to_json}'s record.
          Replies are cached by content digest, so the same circuit
          text yields byte-identical diagnostics on every surface. *)
  | Static of {
      circuit : circuit;
      epsilon : float;  (** Per-gate ε (default 0.01). *)
      input_probability : float;  (** Pr(input = 1) (default 1/2). *)
      cone_budget : int;
          (** BDD ceiling for exact signal probabilities (default
              {!Nano_static.Static.default_cone_budget}). *)
      tech : tech_spec option;
          (** When present, ε is floored at the pack's intrinsic ε —
              the same rule the tech report applies to its bound
              rows. *)
    }
      (** Static reliability bounds ({!Nano_static.Static}): the reply
          carries {!Nano_static.Static.to_json}'s record. Deterministic
          (no Monte Carlo), cached by strash digest + parameters. *)

type envelope = { request : request; timeout_ms : int option }

val kind_name : request -> string
(** The request's [kind] string, e.g. ["analyze"]; used for metrics
    buckets and trace lines. *)

val request_to_json : envelope -> Nano_util.Json.t
val request_of_json : Nano_util.Json.t -> (envelope, string) result
(** Decodes the [kind] discriminator plus kind-specific fields.
    Missing optional fields take the CLI's defaults (δ = 0.01,
    λ0 = 0.5, the paper's ε grid, mapping on). Unknown fields are
    ignored; wrong types and unknown kinds are errors. *)

(** {1 Result encoders} *)

val bounds_to_json : Nano_bounds.Metrics.bounds -> Nano_util.Json.t
(** All bound fields; infeasible ratios and non-finite bounds (the
    size and energy bounds are +∞ at ε = 1/2) encode as [null]. Finite
    values encode as numbers. *)

val profile_to_json : Nano_bounds.Profile.t -> Nano_util.Json.t

val row_to_json : Nano_bounds.Benchmark_eval.row -> Nano_util.Json.t
(** A bound row, with [null] for infeasible or non-finite ratios as in
    {!bounds_to_json}. *)

val measured_row_to_json :
  Nano_bounds.Benchmark_eval.measured_row -> Nano_util.Json.t
(** The analytic row's fields plus [measured_delta],
    [measured_activity] and [measured_vectors] — a strict superset of
    {!row_to_json}, so row consumers can read either shape. *)

val series_to_json :
  (string * (float * float) list) list -> Nano_util.Json.t
(** Figure sweep series as [[{"label":..,"points":[[x,y],..]},..]]. *)

(** {1 Reply envelopes} *)

val ok_reply : Nano_util.Json.t -> string
(** Serialized success line (no trailing newline). *)

val error_reply : code:string -> message:string -> string
(** Serialized failure line. Stable [code]s: [parse_error],
    [bad_request], [unknown_circuit], [blif_parse_error],
    [invalid_scenario], [unknown_figure], [unknown_tech],
    [invalid_tech], [timeout], [oversized], [overloaded],
    [internal_error]. *)

val overloaded_reply : string
(** The precomputed [overloaded] failure line used by the daemon's
    admission control when the bounded pending-request queue (or the
    connection cap) is full — load shedding does not re-encode per
    rejected request. *)
