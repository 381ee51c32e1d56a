type key = int64

(* SHA-1 of the key's eight big-endian bytes, its high word read in place. *)
let token key =
  let s = Sha1.take () in
  Bytes.set_int64_be (Sha1.msg_block s) 0 key;
  Sha1.digest_msg s 8;
  Sha1.word s 0

let rec draw_key rng ~in_use =
  let key = Smapp_sim.Rng.int64 rng in
  let token = token key in
  if in_use token then draw_key rng ~in_use else (key, token)

(* The scratch holding KeyLocal || KeyRemote and NonceLocal || NonceRemote. *)
let join_block ~local_key ~remote_key ~local_nonce ~remote_nonce =
  let s = Sha1.take () in
  let k = Sha1.key_block s and m = Sha1.msg_block s in
  Bytes.set_int64_be k 0 local_key;
  Bytes.set_int64_be k 8 remote_key;
  Bytes.set_int64_be m 0 local_nonce;
  Bytes.set_int64_be m 8 remote_nonce;
  s

let join_hmac ~local_key ~remote_key ~local_nonce ~remote_nonce =
  Sha1.hmac_msg (join_block ~local_key ~remote_key ~local_nonce ~remote_nonce) 16

let join_hmac_matches hmac ~local_key ~remote_key ~local_nonce ~remote_nonce =
  Sha1.hmac_msg_equal (join_block ~local_key ~remote_key ~local_nonce ~remote_nonce) 16 hmac
