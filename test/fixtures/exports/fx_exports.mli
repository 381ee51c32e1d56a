(** An export surface with one case per outcome of the cross-unit rules;
    test_analysis asserts the exact keys. *)

val used_by_sibling : int -> int
(** Called from {!Fx_caller}: clean. *)

val used_through_alias : int -> int
(** Called only as [E.used_through_alias] after [module E = Fx_exports]
    in {!Fx_alias}: clean. *)

val wrapper : int -> int
(** Called from {!Fx_caller}; its body is the only use of
    {!used_only_inside}. *)

val used_only_inside : int -> int
(** Referenced by this unit alone: dead-export. *)

val unused : int -> int
(** Referenced nowhere: dead-export. *)

val tuned : ?passed:int -> ?never:int -> unit -> int
(** Called from {!Fx_caller} with [~passed] only: [?never] is
    dead-optional, [?passed] is clean. *)

(** {1 Record fields} *)

type fields = {
  by_dot : int;  (** Read as [r.by_dot] by {!sum}: clean. *)
  by_pattern : int;  (** Bound by {!sum}'s record pattern: clean. *)
  by_sibling : int;  (** Read only in {!Fx_caller}: clean. *)
  never : int;  (** Built by {!make}, matched only as [_]: dead-field. *)
  mutable written : int;  (** Only ever assigned: dead-field. *)
}

val make : int -> fields
val sum : fields -> int

type copied = { kept : int; replaced : int }
(** [kept] is read only by the copy in {!reset}: clean. [replaced] is
    read in {!Fx_caller}: clean. *)

val reset : copied -> copied

type shared = { through_restated : int }
(** Read only through {!Fx_alias}'s re-export of it: clean. *)
