type header = { msg_type : int; flags : int; seq : int; pid : int }

type attr_value = U8 of int | U32 of int | U64 of int64 | Str of string

type attr = { attr_type : int; value : attr_value }

type msg = { header : header; attrs : attr list }

let align4 n = (n + 3) land lnot 3

(* little-endian writers, like the real thing on x86 *)
let put_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let put_u32 buf v =
  put_u16 buf (v land 0xffff);
  put_u16 buf ((v lsr 16) land 0xffff)

let put_u64 buf v =
  put_u32 buf (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
  put_u32 buf (Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL))

let kind_of = function U8 _ -> 1 | U32 _ -> 2 | U64 _ -> 3 | Str _ -> 4

let payload_len = function U8 _ -> 1 | U32 _ -> 4 | U64 _ -> 8 | Str s -> String.length s

let encode_attr buf { attr_type; value } =
  (* nlattr: len u16 (header + kind byte + payload), type u16, kind u8, payload, pad *)
  let len = 4 + 1 + payload_len value in
  put_u16 buf len;
  put_u16 buf attr_type;
  Buffer.add_char buf (Char.chr (kind_of value));
  (match value with
  | U8 v -> Buffer.add_char buf (Char.chr (v land 0xff))
  | U32 v -> put_u32 buf v
  | U64 v -> put_u64 buf v
  | Str s -> Buffer.add_string buf s);
  for _ = len to align4 len - 1 do
    Buffer.add_char buf '\000'
  done

let encode msg =
  let attrs = Buffer.create 64 in
  List.iter (encode_attr attrs) msg.attrs;
  let buf = Buffer.create (16 + Buffer.length attrs) in
  put_u32 buf (16 + Buffer.length attrs);
  put_u16 buf msg.header.msg_type;
  put_u16 buf msg.header.flags;
  put_u32 buf msg.header.seq;
  put_u32 buf msg.header.pid;
  Buffer.add_buffer buf attrs;
  Buffer.contents buf

let get_u16_at s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
let get_u32_at s off = get_u16_at s off lor (get_u16_at s (off + 2) lsl 16)

let get_u64_at s off =
  Int64.logor
    (Int64.of_int (get_u32_at s off))
    (Int64.shift_left (Int64.of_int (get_u32_at s (off + 4))) 32)

let ( let* ) = Result.bind

let decode_attrs s off stop =
  let rec go off acc =
    if off >= stop then Ok (List.rev acc)
    else if stop - off < 5 then Error "truncated attribute header"
    else begin
      let len = get_u16_at s off in
      let attr_type = get_u16_at s (off + 2) in
      let kind = Char.code s.[off + 4] in
      if len < 5 || off + len > stop then Error "bad attribute length"
      else begin
        let payload_off = off + 5 in
        let payload_len = len - 5 in
        let* value =
          match kind with
          | 1 when payload_len = 1 -> Ok (U8 (Char.code s.[payload_off]))
          | 2 when payload_len = 4 -> Ok (U32 (get_u32_at s payload_off))
          | 3 when payload_len = 8 -> Ok (U64 (get_u64_at s payload_off))
          | 4 -> Ok (Str (String.sub s payload_off payload_len))
          | _ -> Error (Printf.sprintf "bad attribute kind %d/len %d" kind payload_len)
        in
        go (off + align4 len) ({ attr_type; value } :: acc)
      end
    end
  in
  go off []

let decode_one s off =
  if String.length s - off < 16 then Error "truncated header"
  else begin
    let len = get_u32_at s off in
    if len < 16 || off + len > String.length s then Error "bad message length"
    else begin
      let header =
        {
          msg_type = get_u16_at s (off + 4);
          flags = get_u16_at s (off + 6);
          seq = get_u32_at s (off + 8);
          pid = get_u32_at s (off + 12);
        }
      in
      let* attrs = decode_attrs s (off + 16) (off + len) in
      Ok ({ header; attrs }, off + len)
    end
  end

let decode s =
  let* msg, stop = decode_one s 0 in
  if stop <> String.length s then Error "trailing bytes" else Ok msg

let encode_batch msgs = String.concat "" (List.map encode msgs)

let decode_batch s =
  let rec go off acc =
    if off = String.length s then Ok (List.rev acc)
    else begin
      let* msg, off = decode_one s off in
      go off (msg :: acc)
    end
  in
  go 0 []

let find_attr msg attr_type =
  List.find_map
    (fun a -> if a.attr_type = attr_type then Some a.value else None)
    msg.attrs

let get_u32 msg ty =
  match find_attr msg ty with
  | Some (U32 v) -> Ok v
  | Some _ -> Error (Printf.sprintf "attr %d: wrong kind" ty)
  | None -> Error (Printf.sprintf "attr %d: missing" ty)

let get_u64 msg ty =
  match find_attr msg ty with
  | Some (U64 v) -> Ok v
  | Some _ -> Error (Printf.sprintf "attr %d: wrong kind" ty)
  | None -> Error (Printf.sprintf "attr %d: missing" ty)

let get_u8 msg ty =
  match find_attr msg ty with
  | Some (U8 v) -> Ok v
  | Some _ -> Error (Printf.sprintf "attr %d: wrong kind" ty)
  | None -> Error (Printf.sprintf "attr %d: missing" ty)

let get_str msg ty =
  match find_attr msg ty with
  | Some (Str v) -> Ok v
  | Some _ -> Error (Printf.sprintf "attr %d: wrong kind" ty)
  | None -> Error (Printf.sprintf "attr %d: missing" ty)

let get_strs msg ty =
  List.filter_map
    (fun a -> match a.value with Str s when a.attr_type = ty -> Some s | _ -> None)
    msg.attrs
