(** Driver for the netlist static analyzer.

    Runs the whole pass pipeline — BLIF front-end lints
    ({!Blif_front}), output-cone reachability ({!Cone}), constant
    propagation ({!Const_prop}), fan-in audit and Theorem 4
    levelization cross-check ({!Fanin_audit}), structural duplicates
    ({!Duplicates}) and bound applicability ({!Bound_check}) — and
    collects a deterministic, sorted diagnostic report.

    Determinism matters: the service caches lint replies by content
    digest, and the CLI and service must produce byte-identical JSON
    for the same input. All passes emit in a deterministic order and
    the driver sorts with {!Diagnostic.compare}. *)

type options = { max_fanin : int; epsilon : float; delta : float }
(** Operating point for the fan-in audit and bound-applicability
    passes. *)

val default_options : options
(** [k = 3], [ε = 0.01], [δ = 0.01] — the paper's running example
    regime. *)

val pass_ids : string list
(** Every pass id a report can carry, in pipeline order: ["blif"],
    ["cycle"], ["structure"], ["cone"], ["const"], ["fanin"], ["dup"],
    ["bound"]. *)

type report = {
  model : string;  (** model name; [""] when parsing failed early *)
  digest : string option;
      (** strash content address of the elaborated netlist; [None] when
          elaboration was skipped or failed *)
  diagnostics : Diagnostic.t list;  (** sorted by {!Diagnostic.compare} *)
}

val errors : report -> int
val warnings : report -> int
val infos : report -> int

val run_netlist :
  ?options:options -> ?digest:string -> Nano_netlist.Netlist.t -> report
(** Lint an already-elaborated netlist (passes 2–6 only; the BLIF
    front-end lints need raw text). Validates structure first: a
    netlist failing {!Nano_netlist.Netlist.validate} gets a single
    [invalid-netlist] error and no further analysis. [?digest] skips
    recomputing the strash digest when the caller already has it. *)

val run_blif_string : ?options:options -> string -> report
(** Lint BLIF text: one scan ({!Nano_blif.Blif.read}) → front-end
    lints on its raw view → (if no front-end errors) elaboration of the
    same scanned model → netlist passes. A scan failure yields a single
    [parse-error] diagnostic; front-end errors suppress elaboration (it
    would fail on the same defects, less precisely). *)

val run_blif_file : ?options:options -> string -> (report, string) result
(** [Error msg] only for I/O failures; parse failures are reports. *)

val report_to_json : report -> Nano_util.Json.t
(** Stable schema:
    [{"model", "digest", "errors", "warnings", "infos",
    "diagnostics": [...]}] with {!Diagnostic.to_json} items. *)

val preflight_json : report -> Nano_util.Json.t option
(** Condensed form attached to analyze/profile replies: [None] when
    the report has no errors and no warnings (so clean circuits keep
    byte-identical replies with earlier releases), otherwise
    [{"errors", "warnings", "diagnostics"}] restricted to errors and
    warnings. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable multi-line rendering used by [nanobound lint]. *)
