(** An insertion-ordered hash table.

    O(1) add, remove and lookup (hash table) with deterministic,
    insertion-ordered iteration (intrusive doubly-linked list through the
    nodes) — the connection-table building block: registries that are
    looked up by token/port on every packet but must still enumerate in a
    reproducible order for snapshots and sweeps. Keys are compared and
    hashed structurally, so tuples of ints work; do not use keys containing
    functions or cyclic values. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t

val length : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool
val mem : ('k, 'v) t -> 'k -> bool
val find : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind [key]. An existing binding is replaced and the key moves to the
    end of the iteration order. *)

val remove : ('k, 'v) t -> 'k -> unit
(** No-op when absent. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Oldest binding first. The binding under iteration may be removed by
    [f]; other concurrent mutation is unspecified. *)

val clear : ('k, 'v) t -> unit
(** Drop every binding. *)

val to_list : ('k, 'v) t -> 'v list
val keys : ('k, 'v) t -> 'k list
