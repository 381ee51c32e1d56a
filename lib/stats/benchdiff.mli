(** BENCH.json regression sentinel: compare a bench run against the
    committed baseline under per-metric tolerance rules.

    Metrics are addressed as ["section.metric"]. The first rule whose glob
    pattern matches wins; metrics matching no rule are reported as
    untracked and never gate. {!default_rules} encodes the policy
    (DESIGN.md §15): deterministic outputs (event counts, identity flags)
    are exact, allocation-per-event is tight, wall-clock rates are loose
    enough to only catch order-of-magnitude blowups. The driver is
    [smapp benchdiff] / the [@benchdiff] alias. *)

type direction = Higher_is_worse | Lower_is_worse | Exact

type rule = {
  r_pattern : string;  (** glob over ["section.metric"]; ['*'] wildcard *)
  r_tol : float;  (** relative tolerance on [(cur - base) / |base|] *)
  r_abs : float;  (** absolute slack that must {e also} be exceeded *)
  r_dir : direction;
}

val rule : ?abs:float -> tol:float -> dir:direction -> string -> rule
val default_rules : rule list

val find_rule : rule list -> string -> rule option
(** First pattern match wins. *)

type status = Within | Improved | Regressed | Missing | Untracked

val status_name : status -> string

type entry = {
  e_key : string;
  e_base : float;
  e_cur : float option;  (** [None]: metric disappeared from the run *)
  e_delta : float;
      (** relative to [|base|], or the absolute delta when base is 0 *)
  e_rule : rule option;
  e_status : status;
}

type result = {
  d_base_scale : string;
  d_cur_scale : string;
  d_entries : entry list;  (** one per baseline metric, file order *)
}

val bench_metrics : Json.t -> (string * float) list
(** Flatten a BENCH.json document to [("section.metric", value)] pairs. *)

val bench_scale : Json.t -> string

val compare_bench :
  ?rules:rule list -> baseline:Json.t -> current:Json.t -> unit -> result

val scale_ok : result -> bool
(** Comparing runs at different scales is meaningless; a mismatch fails
    the gate on its own. *)

val regressions : result -> entry list
(** Entries with status [Regressed] or [Missing]. *)

val exit_code : result -> int
(** [1] on any regression, missing tracked metric, or scale mismatch;
    [0] otherwise — the CI gate's contract. *)

val render : result -> string
(** Human-readable table plus a one-line verdict. *)

val to_json : result -> Json.t
(** The machine-readable diff CI uploads as an artifact. *)
