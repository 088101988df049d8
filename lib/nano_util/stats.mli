(** Streaming summary statistics (Welford's algorithm). *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Feed one observation. *)

val add_many : t -> float list -> unit

val count : t -> int
val mean : t -> float
(** Mean of the observations so far; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] when fewer than two observations. *)

val stddev : t -> float
val min_value : t -> float
(** Smallest observation. Raises [Invalid_argument] when empty. *)

val max_value : t -> float
(** Largest observation. Raises [Invalid_argument] when empty. *)

val confidence95 : t -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt count]); [0.] when fewer than two
    observations. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
}

val summary : t -> summary
(** Snapshot of the accumulator. Raises [Invalid_argument] when empty. *)
