(** Deterministic pseudo-random number generation.

    SplitMix64: fast, high-quality, and trivially splittable so that each
    simulated component can own an independent stream derived from the
    experiment seed. Simulations never read OS entropy; identical seeds give
    bit-identical runs. *)

type t
(** A mutable PRNG stream. *)

val of_int : int -> t
(** [of_int seed] makes a fresh stream. *)

val split : t -> t
(** [split t] derives an independent child stream and advances [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniform random bits as a non-negative int. *)

val bits53 : t -> int
(** The draw {!float} scales: [float t b = float_of_int (bits53 t) *. 0x1p-53 *. b]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution. *)

val uniform_span : t -> Time.span -> Time.span
(** Uniform span in [\[0, s)]. *)
