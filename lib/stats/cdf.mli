(** Empirical cumulative distribution functions.

    The paper reports most results as CDFs (Figs 2b, 2c, 3); this module
    builds them from sample lists and evaluates/prints them. *)

type t
(** An immutable empirical CDF. *)

val of_samples : float list -> t
(** Raises [Invalid_argument] on the empty list. *)

val eval : t -> float -> float
(** [eval cdf x] = fraction of samples [<= x], in [\[0,1\]]. *)

val quantile : t -> float -> float
(** [quantile cdf q] for [q] in [(0,1\]]: smallest sample [x] with
    [eval cdf x >= q]. *)

val min_value : t -> float
val max_value : t -> float

val points : t -> (float * float) list
(** Step points [(x, F(x))] at each distinct sample, ascending. *)
