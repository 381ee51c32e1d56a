(** Out-of-order reassembly for one receive direction.

    Works in *unwrapped* sequence space (the TCB converts 32-bit wire
    sequence numbers to monotonically increasing byte offsets). Each inserted
    range carries the stream offset ([dsn]) of its first byte so the upper
    layer can reconstruct the meta-level stream; the mapping is assumed
    linear within a range and consistent across duplicates, which holds for
    TCP retransmissions.

    The ranges sit sorted in one int array (start, length, stream offset
    per range) that starts empty and grows by doubling, so once they have room nothing here allocates: results come
    back as ints ({!pop_ready}, {!popped_dsn}) and the ranges are read by
    index ({!count}, {!range_start}, {!range_len}). Ranges that are
    contiguous in both sequence and stream space are merged, so the
    ranges are the maximal runs of buffered bytes. *)

type t

val create : unit -> t

val insert : t -> seq:int -> len:int -> dsn:int -> unit
(** Add a received range. Overlapping bytes already buffered are trimmed
    away: the first copy of a byte wins. [len] must be positive. *)

val pop_ready : t -> rcv_nxt:int -> int
(** [pop_ready t ~rcv_nxt]: if the first range starts at or before
    [rcv_nxt], remove it and return how many of its bytes lie at or after
    [rcv_nxt] (their stream offset is then {!popped_dsn}); otherwise 0. The
    caller advances [rcv_nxt] by the result and calls again while it is
    positive. A stale first range, wholly below [rcv_nxt], is dropped and
    gives 0. *)

val popped_dsn : t -> int
(** Stream offset of the bytes the last positive {!pop_ready} returned. *)

val buffered_bytes : t -> int
(** Bytes waiting in out-of-order ranges (a running total). *)

val count : t -> int
(** Number of buffered ranges. *)

val range_start : t -> int -> int
(** [range_start t i]: first sequence offset of range [i], ascending in
    [i] — the receiver's SACK blocks are the first ranges. *)

val range_len : t -> int -> int
