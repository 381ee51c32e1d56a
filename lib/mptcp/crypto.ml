type key = int64

(* SHA-1 of the key's eight big-endian bytes. *)
let hash_key key =
  let s = Sha1.scratch () in
  Bytes.set_int64_be (Sha1.msg_block s) 0 key;
  Sha1.digest_msg s 8;
  s

let token key = Sha1.word (hash_key key) 0

let rec draw_key rng ~in_use =
  let key = Smapp_sim.Rng.int64 rng in
  let token = token key in
  if in_use token then draw_key rng ~in_use else (key, token)

let idsn key =
  let s = hash_key key in
  (* digest bytes 12..19, truncated to a non-negative OCaml int *)
  ((Sha1.word s 3 lsl 32) lor Sha1.word s 4) land max_int

let join_hmac ~local_key ~remote_key ~local_nonce ~remote_nonce =
  let s = Sha1.scratch () in
  let k = Sha1.key_block s and m = Sha1.msg_block s in
  Bytes.set_int64_be k 0 local_key;
  Bytes.set_int64_be k 8 remote_key;
  Bytes.set_int64_be m 0 local_nonce;
  Bytes.set_int64_be m 8 remote_nonce;
  Sha1.hmac_msg s 16
