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
