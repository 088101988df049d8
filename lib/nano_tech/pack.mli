(** Named technology packs: absolute per-gate device constants.

    A pack maps each logic {!Nano_netlist.Gate.kind} to the four
    physical quantities an absolute-energy report needs — dynamic
    energy per output transition (joules), leakage power (watts),
    area (m²) and propagation delay (seconds) — plus the wire/clock
    constants of the Charm/Orion model family. Everything the
    normalized bounds report as [E/E0] ratios becomes joules, watts,
    m² and seconds once a pack is selected.

    Packs are pure data with a canonical JSON form ({!to_json}) and a
    content digest ({!digest}), so the evaluation service can key its
    caches on pack identity: a built-in pack and a user-supplied JSON
    spelling of the same constants share one cache line. *)

type entry = {
  energy_j : float;  (** Dynamic energy per switching event (J). *)
  leakage_w : float;  (** Static leakage power while idle or not (W). *)
  area_m2 : float;  (** Cell area (m²). *)
  delay_s : float;  (** Propagation delay (s). *)
}

type t = {
  name : string;
  description : string;
  vdd : float;  (** Supply voltage (V); must be positive. *)
  wire_cap_f_per_m : float;  (** Wire capacitance (F/m); 0 when unused. *)
  wire_res_ohm_per_m : float;  (** Wire resistance (Ω/m); 0 when unused. *)
  clock_energy_j : float;
      (** Clock-tree energy per clocked cell per cycle (J); 0 for
          purely combinational accounting. *)
  fanin_scale : float;
      (** Per-extra-input derate: a gate with arity [a] beyond its
          kind's reference arity costs [1 + fanin_scale * (a - ref)]
          times its base entry, uniformly on all four constants. *)
  intrinsic_epsilon : float;
      (** The device family's intrinsic gate-error rate, in [0, 1/2];
          0 for reliable CMOS. Analyses under the pack floor the ε the
          caller asks for at this value ({!effective_epsilon}). *)
  gates : (Nano_netlist.Gate.kind * entry) list;
      (** Per-kind base entries, in canonical kind order. Sources
          ([Input]/[Const]) are always free and never listed. *)
}

val kind_order : Nano_netlist.Gate.kind list
(** Canonical serialization order of logic kinds
    ({!Nano_netlist.Gate.all_logic_kinds}). *)

val reference_arity : Nano_netlist.Gate.kind -> int
(** The arity a kind's base entry is specified at: 1 for [Buf]/[Not],
    3 for [Majority], 2 otherwise. *)

val find : t -> Nano_netlist.Gate.kind -> entry option
(** The base entry for a kind; [None] when the pack does not map it. *)

val effective_epsilon : t -> float -> float
(** [effective_epsilon pack epsilon] is [max epsilon intrinsic_epsilon]:
    the device cannot be more reliable than its pack says. The tech
    report's bound rows and [static] under a pack both use it. *)

val scaled : t -> Nano_netlist.Gate.kind -> arity:int -> entry option
(** {!find} with the {!field-fanin_scale} derate applied for arities
    beyond {!reference_arity}. [None] exactly when {!find} is. *)

val normalize : t -> t
(** Same pack with [gates] sorted into canonical kind order and
    duplicate kinds dropped (first wins); {!to_json} and {!digest} are
    defined over this form. *)

val to_json : t -> Nano_util.Json.t
(** Canonical JSON form: fixed field order, gates in {!kind_order}.
    [Loader.of_json (to_json p)] round-trips packs that validate.
    Raises [Invalid_argument] on non-finite constants — validate
    first. *)

val digest : t -> string
(** MD5 hex of the canonical serialization; the service's
    pack-identity cache-key component. *)
