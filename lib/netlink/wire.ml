type writer = Buffer.t

(* The domain's free writers. Writers nest (a dump's snapshots are written
   while the dump's is open), so each holds its own buffer. *)
let pool_key = Domain.DLS.new_key (fun () -> Smapp_sim.Arena.create (fun () -> Buffer.create 128))

(* little-endian, like the real thing on x86 *)
let add_u32 b v =
  Buffer.add_uint16_le b (v land 0xffff);
  Buffer.add_uint16_le b ((v lsr 16) land 0xffff)

let start ~msg_type ~seq =
  let b = Smapp_sim.Arena.take (Domain.DLS.get pool_key) in
  Buffer.clear b;
  add_u32 b 0 (* the length, set by [finish] *);
  Buffer.add_uint16_le b msg_type;
  Buffer.add_uint16_le b 0;
  add_u32 b seq;
  add_u32 b 0;
  b
[@@smapp.hot]

(* nlattr: len u16 (header + kind byte + payload), type u16, kind u8, then
   the payload and zero padding to 4 bytes *)
let attr b ty kind len =
  Buffer.add_uint16_le b (5 + len);
  Buffer.add_uint16_le b ty;
  Buffer.add_uint8 b kind

let pad b =
  while Buffer.length b land 3 <> 0 do
    Buffer.add_char b '\000'
  done

let put_bool b ty v =
  attr b ty 1 1;
  Buffer.add_uint8 b (Bool.to_int v);
  pad b

let put_u32 b ty v =
  attr b ty 2 4;
  add_u32 b v;
  pad b

let put_u64 b ty v =
  attr b ty 3 8;
  add_u32 b v;
  add_u32 b (v asr 32);
  pad b

let put_str b ty s =
  attr b ty 4 (String.length s);
  Buffer.add_string b s;
  pad b

let finish b =
  let m = Buffer.to_bytes b in
  Smapp_sim.Arena.put (Domain.DLS.get pool_key) b;
  Bytes.set_uint16_le m 0 (Bytes.length m land 0xffff);
  Bytes.set_uint16_le m 2 ((Bytes.length m lsr 16) land 0xffff);
  Bytes.unsafe_to_string m
[@@smapp.hot]

(* A view is a message whose attributes fill [16, length) and have passed
   [check_attrs], so the getters below read without bounds failures. *)
type view = string

exception Malformed of string

let u16 s off = String.get_uint16_le s off
let u32 s off = u16 s off lor (u16 s (off + 2) lsl 16)
let align4 n = (n + 3) land lnot 3

let rec check_attrs s off stop =
  if off < stop then begin
    if stop - off < 5 then raise (Malformed "truncated attribute header");
    let len = u16 s off and kind = Char.code s.[off + 4] in
    if len < 5 || off + len > stop then raise (Malformed "bad attribute length");
    (match (kind, len - 5) with
    | 1, 1 | 2, 4 | 3, 8 | 4, _ -> ()
    | _ -> raise (Malformed (Printf.sprintf "bad attribute kind %d/len %d" kind (len - 5))));
    check_attrs s (off + align4 len) stop
  end

let view s =
  if String.length s < 16 then raise (Malformed "truncated header");
  let len = u32 s 0 in
  if len < 16 || len > String.length s then raise (Malformed "bad message length");
  check_attrs s 16 len;
  if len <> String.length s then raise (Malformed "trailing bytes");
  s

let msg_type v = u16 v 4
let seq v = u32 v 8

(* offset of the first attribute of type [ty] at or after [off], or -1 *)
let rec find v ty off =
  if off >= String.length v then -1
  else if u16 v (off + 2) = ty then off
  else find v ty (off + align4 (u16 v off))

let payload v ty kind =
  let off = find v ty 16 in
  if off < 0 then raise (Malformed (Printf.sprintf "attr %d: missing" ty));
  if Char.code v.[off + 4] <> kind then raise (Malformed (Printf.sprintf "attr %d: wrong kind" ty));
  off + 5

let get_bool v ty = v.[payload v ty 1] <> '\000'
let get_u32 v ty = u32 v (payload v ty 2)

let get_u64 v ty =
  let p = payload v ty 3 in
  u32 v p lor (u32 v (p + 4) lsl 32)

let get_str v ty =
  let p = payload v ty 4 in
  String.sub v p (u16 v (p - 5) - 5)

let find_u32 v ty =
  let off = find v ty 16 in
  if off >= 0 && v.[off + 4] = '\002' then u32 v (off + 5) else -1

let rec strs_from v ty off =
  let off = find v ty off in
  if off < 0 then []
  else
    let rest = strs_from v ty (off + align4 (u16 v off)) in
    if v.[off + 4] = '\004' then String.sub v (off + 5) (u16 v off - 5) :: rest else rest

let get_strs v ty = strs_from v ty 16
