(** Summary statistics over float samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float; (** sample standard deviation; 0 when count < 2 *)
  min : float;
  max : float;
}

val of_samples : float list -> t
(** Raises [Invalid_argument] on the empty list. *)

val percentile : float array -> float -> float
(** [percentile samples p] for [p] in [\[0,100\]], linear interpolation
    between closest ranks. The input array is left untouched (the sort
    happens on a private copy). Raises [Invalid_argument] on an empty
    array or [p] outside the range. *)
