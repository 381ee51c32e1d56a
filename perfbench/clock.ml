external now : unit -> (float[@unboxed])
  = "perfbench_now_byte" "perfbench_now"
[@@noalloc]
(** Seconds on the monotonic clock, from an arbitrary origin. *)
