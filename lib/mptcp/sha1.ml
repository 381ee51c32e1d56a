(* SHA-1 (FIPS 180-1) over native ints. Each 32-bit word lives in an OCaml
   int and is masked back to 32 bits after every add and rotate, so no
   round boxes a value. Every mutable word of a hash sits in its domain's
   one [scratch]: a hash allocates at most its result, never per block. *)

let mask = 0xFFFF_FFFF

(* The word helpers stay in this unit: the dev profile compiles with
   -opaque, so [@inline] does not cross modules. *)
let[@inline] rol x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let[@inline] get_word b p = (Bytes.get_uint16_be b p lsl 16) lor Bytes.get_uint16_be b (p + 2)

let[@inline] set_word b p w =
  Bytes.set_uint16_be b p (w lsr 16);
  Bytes.set_uint16_be b (p + 2) (w land 0xFFFF)

type scratch = {
  st : int array;  (* [0..4]: chaining words h0..h4; [5..20]: the 16-word message schedule *)
  key : Bytes.t;  (* HMAC pad block *)
  msg : Bytes.t;  (* one-block message, or a message's tail and padding *)
}

(* One per domain, built on its first hash; a hash calls nothing outside
   this unit, so two never interleave. [take] zeroes both blocks: an HMAC
   leaves K^opad in the pad block, and [absorb] padding in the other. *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      { st = Array.make 21 0; key = Bytes.create 64; msg = Bytes.create 64 })

let take () =
  let s = Domain.DLS.get scratch_key in
  Bytes.fill s.key 0 64 '\000';
  Bytes.fill s.msg 0 64 '\000';
  s

let key_block s = s.key
let msg_block s = s.msg

let word s i =
  if i < 0 || i > 4 then invalid_arg "Sha1.word";
  s.st.(i)

let reset st =
  st.(0) <- 0x67452301;
  st.(1) <- 0xEFCDAB89;
  st.(2) <- 0x98BADCFE;
  st.(3) <- 0x10325476;
  st.(4) <- 0xC3D2E1F0

(* Fold the 64 bytes of [src] at [off] into the chaining words. The
   schedule is circular: round i >= 16 overwrites word i-16 in place. *)
let compress st src off =
  for i = 0 to 15 do
    st.(5 + i) <- get_word src (off + (4 * i))
  done;
  let a = ref st.(0) and b = ref st.(1) and c = ref st.(2) and d = ref st.(3) and e = ref st.(4) in
  for i = 0 to 79 do
    let w =
      if i < 16 then st.(5 + i)
      else begin
        let j = 5 + (i land 15) in
        let w =
          rol
            (st.(5 + ((i - 3) land 15))
            lxor st.(5 + ((i - 8) land 15))
            lxor st.(5 + ((i - 14) land 15))
            lxor st.(j))
            1
        in
        st.(j) <- w;
        w
      end
    in
    let vb = !b and vc = !c and vd = !d in
    (* f(b, c, d) + K for the round's quarter *)
    let fk =
      if i < 20 then ((vb land vc) lor (lnot vb land vd)) + 0x5A827999
      else if i < 40 then (vb lxor vc lxor vd) + 0x6ED9EBA1
      else if i < 60 then ((vb land vc) lor (vb land vd) lor (vc land vd)) + 0x8F1BBCDC
      else (vb lxor vc lxor vd) + 0xCA62C1D6
    in
    let temp = (rol !a 5 + fk + !e + w) land mask in
    e := vd;
    d := vc;
    c := rol vb 30;
    b := !a;
    a := temp
  done;
  st.(0) <- (st.(0) + !a) land mask;
  st.(1) <- (st.(1) + !b) land mask;
  st.(2) <- (st.(2) + !c) land mask;
  st.(3) <- (st.(3) + !d) land mask;
  st.(4) <- (st.(4) + !e) land mask

(* Hash the first [len] bytes of [src] as the end of a [total]-byte
   message: whole blocks straight from [src], then the tail, 0x80, zeros
   and the 64-bit bit length in the message block (two blocks when the
   tail leaves no room for the length). [src] may be the message block. *)
let absorb s src len ~total =
  let p = ref 0 in
  while !p + 64 <= len do
    compress s.st src !p;
    p := !p + 64
  done;
  let rem = len - !p and m = s.msg in
  Bytes.blit src !p m 0 rem;
  Bytes.set m rem '\x80';
  Bytes.fill m (rem + 1) (63 - rem) '\000';
  if rem >= 56 then begin
    compress s.st m 0;
    Bytes.fill m 0 56 '\000'
  end;
  let bits = total * 8 in
  set_word m 56 ((bits lsr 32) land mask);
  set_word m 60 (bits land mask);
  compress s.st m 0

let hash s src len =
  reset s.st;
  absorb s src len ~total:len

(* The digest, big-endian, into the first 20 bytes of [b]. *)
let put_digest st b =
  for i = 0 to 4 do
    set_word b (4 * i) st.(i)
  done

let output st =
  let out = Bytes.create 20 in
  put_digest st out;
  Bytes.unsafe_to_string out

let digest_msg s n = hash s s.msg n

let digest msg =
  let s = take () in
  hash s (Bytes.unsafe_of_string msg) (String.length msg);
  output s.st

let hex msg =
  let d = digest msg in
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let xor_block b pad =
  for i = 0 to 63 do
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor pad)
  done

(* HMAC over the first [len] bytes of [src], keyed by the zero-padded key
   in the pad block, left in the chaining words. The pad block turns from
   K^ipad into K^opad in place, and the inner digest goes straight into the
   outer hash's second block. *)
let hmac_bytes s src len =
  let st = s.st and k = s.key in
  xor_block k 0x36;
  reset st;
  compress st k 0;
  absorb s src len ~total:(64 + len);
  put_digest st s.msg;
  xor_block k (0x36 lxor 0x5c);
  reset st;
  compress st k 0;
  absorb s s.msg 20 ~total:84

let hmac_msg s n =
  hmac_bytes s s.msg n;
  output s.st

(* The digest words equal [mac]'s, read in place. *)
let rec words_equal st mac i =
  i = 5 || (get_word mac (4 * i) = st.(i) && words_equal st mac (i + 1))

let hmac_msg_equal s n mac =
  hmac_bytes s s.msg n;
  String.length mac = 20 && words_equal s.st (Bytes.unsafe_of_string mac) 0

let hmac ~key msg =
  let s = take () in
  let kl = String.length key in
  (* a key longer than a block is replaced by its digest (RFC 2104) *)
  if kl > 64 then begin
    hash s (Bytes.unsafe_of_string key) kl;
    put_digest s.st s.key
  end
  else Bytes.blit_string key 0 s.key 0 kl;
  hmac_bytes s (Bytes.unsafe_of_string msg) (String.length msg);
  output s.st
