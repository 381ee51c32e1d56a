(** Out-of-order reassembly for one receive direction.

    Works in *unwrapped* sequence space (the TCB converts 32-bit wire
    sequence numbers to monotonically increasing byte offsets). Each inserted
    range carries the stream offset ([dsn]) of its first byte so the upper
    layer can reconstruct the meta-level stream; the mapping is assumed
    linear within a range and consistent across duplicates, which holds for
    TCP retransmissions. *)

type t

val create : unit -> t

val insert : t -> seq:int -> len:int -> dsn:int -> unit
(** Add a received range. Overlapping bytes already buffered or already
    delivered are trimmed away. [len] must be positive. *)

val pop_ready : t -> rcv_nxt:int -> (int * int) option
(** [pop_ready t ~rcv_nxt]: if a buffered range starts at [rcv_nxt], remove
    and return its [(dsn, len)]; the caller advances [rcv_nxt] by [len] and
    calls again. *)

val buffered_bytes : t -> int
(** Bytes waiting in out-of-order ranges. *)

val first_ranges : t -> int -> (int * int) list
(** [(start, len)] of up to [n] buffered ranges, ascending — the receiver's
    SACK blocks. *)
