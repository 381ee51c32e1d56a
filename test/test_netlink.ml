(* Tests for the netlink wire format, the kernel<->user channel, and the
   MPTCP path-manager message family. *)

open Smapp_sim
open Smapp_netsim
module Wire = Smapp_netlink.Wire
module Channel = Smapp_netlink.Channel
module Pm_msg = Smapp_core.Pm_msg

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* --- wire format ------------------------------------------------------------- *)

let malformed f = match f () with _ -> None | exception Wire.Malformed e -> Some e

let test_wire_roundtrip_simple () =
  let w = Wire.start ~msg_type:7 ~seq:99 in
  Wire.put_u32 w 1 123456;
  Wire.put_bool w 2 true;
  Wire.put_u64 w 3 0x1234_5678_9ABC_DEF0;
  Wire.put_str w 4 "eth0";
  let v = Wire.view (Wire.finish w) in
  checki "type" 7 (Wire.msg_type v);
  checki "seq" 99 (Wire.seq v);
  checki "u32" 123456 (Wire.get_u32 v 1);
  checkb "bool" true (Wire.get_bool v 2);
  checki "u64" 0x1234_5678_9ABC_DEF0 (Wire.get_u64 v 3);
  checks "str" "eth0" (Wire.get_str v 4)

let test_wire_truncated () =
  let w = Wire.start ~msg_type:1 ~seq:1 in
  Wire.put_u32 w 1 5;
  let bytes = Wire.finish w in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  checkb "truncated rejected" true (malformed (fun () -> Wire.view cut) <> None)

let test_wire_missing_attr () =
  let w = Wire.start ~msg_type:1 ~seq:1 in
  Wire.put_str w 7 "x";
  let v = Wire.view (Wire.finish w) in
  let err ty = malformed (fun () -> Wire.get_u32 v ty) in
  Alcotest.(check (option string)) "missing" (Some "attr 42: missing") (err 42);
  Alcotest.(check (option string)) "wrong kind" (Some "attr 7: wrong kind") (err 7)

type value = Bool of bool | U32 of int | U64 of int | Str of string

let put w (ty, x) =
  match x with
  | Bool b -> Wire.put_bool w ty b
  | U32 n -> Wire.put_u32 w ty n
  | U64 n -> Wire.put_u64 w ty n
  | Str s -> Wire.put_str w ty s

let get v ty = function
  | Bool _ -> Bool (Wire.get_bool v ty)
  | U32 _ -> U32 (Wire.get_u32 v ty)
  | U64 _ -> U64 (Wire.get_u64 v ty)
  | Str _ -> Str (Wire.get_str v ty)

let wire_props =
  let attr_gen =
    QCheck.Gen.(
      pair (int_range 0 15)
        (oneof
           [
             map (fun b -> Bool b) bool;
             map (fun v -> U32 (v land 0xFFFFFFFF)) (int_bound max_int);
             map (fun v -> U64 v) int;
             map (fun s -> Str s) (string_size (int_range 0 40));
           ]))
  in
  let msg_gen =
    QCheck.Gen.(
      triple (int_range 0 65535) (int_range 0 1000000) (list_size (int_range 0 8) attr_gen))
  in
  [
    (* a getter reads the first attribute of its type; [get_strs] every string one *)
    QCheck.Test.make ~name:"wire roundtrip" ~count:300 (QCheck.make msg_gen)
      (fun (ty, seq, attrs) ->
        let w = Wire.start ~msg_type:ty ~seq in
        List.iter (put w) attrs;
        let v = Wire.view (Wire.finish w) in
        Wire.msg_type v = ty
        && Wire.seq v = seq
        && List.for_all
             (fun (ty, _) ->
               let first = List.assoc ty attrs in
               get v ty first = first
               && Wire.get_strs v ty
                  = List.filter_map (function t, Str s when t = ty -> Some s | _ -> None) attrs)
             attrs);
  ]

(* --- channel ------------------------------------------------------------------ *)

let test_channel_latency () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:(Time.span_us 10) () in
  let arrived = ref None in
  Channel.on_user_receive ch (fun bytes ->
      arrived := Some (Time.to_ns (Engine.now e), bytes));
  Channel.kernel_send ch "hello";
  Engine.run e;
  match !arrived with
  | Some (t, bytes) ->
      checks "payload" "hello" bytes;
      (* 10us nominal with +-30% jitter *)
      checkb "latency in jitter band" true (t >= 7_000 && t <= 13_000)
  | None -> Alcotest.fail "nothing arrived"

let test_channel_stress_factor () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:(Time.span_us 10) () in
  Channel.set_stress_factor ch 3.0;
  let arrived = ref None in
  Channel.on_kernel_receive ch (fun _ -> arrived := Some (Time.to_ns (Engine.now e)));
  Channel.user_send ch "cmd";
  Engine.run e;
  match !arrived with
  | Some t -> checkb "stressed latency" true (t >= 21_000 && t <= 39_000)
  | None -> Alcotest.fail "nothing arrived"

(* A netlink socket is FIFO per direction, whatever order the engine runs
   same-instant events in: back-to-back messages whose arrivals are clamped
   onto one instant arrive in send order under every tie order. *)
let test_fifo_under_every_tie_order () =
  let sent = List.init 6 string_of_int in
  List.iter
    (fun dir ->
      let crossing e =
        let ch = Channel.create e () in
        let got = ref [] in
        let record bytes = got := bytes :: !got in
        Channel.on_user_receive ch record;
        Channel.on_kernel_receive ch record;
        List.iter
          (if dir = Channel.To_user then Channel.kernel_send ch else Channel.user_send ch)
          sent;
        Engine.run e;
        String.concat " " (List.rev !got)
      in
      let o = Smapp_check.Explore.run crossing in
      let name = if dir = Channel.To_user then "k->u" else "u->k" in
      checki (name ^ ": all six tie") 720 o.Smapp_check.Explore.schedules;
      checks (name ^ ": send order") (String.concat " " sent) o.Smapp_check.Explore.baseline;
      checkb (name ^ ": order-invariant") true (Smapp_check.Explore.consistent o))
    [ Channel.To_user; Channel.To_kernel ]

let test_channel_counters () =
  let e = Engine.create () in
  let ch = Channel.create e () in
  Channel.kernel_send ch "a";
  Channel.kernel_send ch "b";
  Channel.user_send ch "c";
  checki "k2u" 2 (Channel.kernel_to_user_messages ch);
  checki "u2k" 1 (Channel.user_to_kernel_messages ch)

(* --- pm_msg codecs ---------------------------------------------------------------- *)

let sample_flow =
  Ip.flow ~src:(Ip.endpoint (Ip.v4 10 0 0 1) 43211) ~dst:(Ip.endpoint (Ip.v4 10 0 1 2) 80)

let other_flow =
  Ip.flow ~src:(Ip.endpoint (Ip.v4 10 0 2 1) 40000) ~dst:(Ip.endpoint (Ip.v4 10 0 3 2) 443)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init
    (String.length h / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let sub_info =
  Pm_msg.R_sub_info
    ( 3,
      {
        Smapp_tcp.Tcp_info.state = Smapp_tcp.Tcp_info.Established;
        rto = Time.span_ms 220;
        srtt = Some (Time.span_ms 23);
        snd_cwnd = 28000;
        pacing_rate = 2_500_000.0;
        snd_una = 123456;
        snd_nxt = 140000;
        retransmits = 0;
        total_retrans = 7;
        backup = false;
      } )

let sub_info_unsampled =
  Pm_msg.R_sub_info
    ( 0,
      {
        Smapp_tcp.Tcp_info.state = Smapp_tcp.Tcp_info.Syn_sent;
        rto = Time.span_s 1;
        srtt = None;
        snd_cwnd = 14000;
        pacing_rate = 0.0;
        snd_una = 0;
        snd_nxt = 1;
        retransmits = 0;
        total_retrans = 0;
        backup = false;
      } )

let two_conns =
  [
    {
      Pm_msg.cs_token = 0xBEEF;
      cs_initial_flow = sample_flow;
      cs_established = true;
      cs_subs =
        [
          { Pm_msg.ss_sub_id = 0; ss_flow = sample_flow; ss_backup = false };
          { Pm_msg.ss_sub_id = 1; ss_flow = other_flow; ss_backup = true };
        ];
    };
    { Pm_msg.cs_token = 7; cs_initial_flow = other_flow; cs_established = false; cs_subs = [] };
  ]

(* Every message kind's bytes, pinned as hex under one seq; each command also
   under one idempotency key. A change here changes what crosses the
   kernel/userspace boundary. *)
let seq = 0x01020304
let key = 0x2BAD1DEA

let event_vectors =
  [
    ( Pm_msg.Created { token = 0xABCD; flow = sample_flow; sub_id = 0 },
      "580000000100000004030201000000000900010002cdab000000000009000200\
       020000000000000009000300020100000a0000000900040002cba80000000000\
       09000500020201000a000000090006000250000000000000" );
    ( Pm_msg.Estab { token = 0xABCD },
      "1c0000000200000004030201000000000900010002cdab0000000000" );
    ( Pm_msg.Closed { token = 1 },
      "1c000000030000000403020100000000090001000201000000000000" );
    ( Pm_msg.Sub_estab { token = 2; sub_id = 3; flow = sample_flow; backup = true },
      "6000000004000000040302010000000009000100020200000000000009000200\
       0203000000000000060007000101000009000300020100000a00000009000400\
       02cba8000000000009000500020201000a000000090006000250000000000000" );
    ( Pm_msg.Sub_closed
        { token = 2; sub_id = 3; flow = sample_flow; error = Some Smapp_tcp.Tcp_error.Econnreset },
      "6400000005000000040302010000000009000100020200000000000009000200\
       020300000000000009000800026800000000000009000300020100000a000000\
       0900040002cba8000000000009000500020201000a0000000900060002500000\
       00000000" );
    ( Pm_msg.Sub_closed { token = 2; sub_id = 4; flow = sample_flow; error = None },
      "6400000005000000040302010000000009000100020200000000000009000200\
       020400000000000009000800020000000000000009000300020100000a000000\
       0900040002cba8000000000009000500020201000a0000000900060002500000\
       00000000" );
    ( Pm_msg.Timeout { token = 5; sub_id = 1; rto = Time.span_ms 1600; count = 3 },
      "4400000006000000040302010000000009000100020500000000000009000200\
       02010000000000000d0009000300105e5f0000000000000009000a0002030000\
       00000000" );
    ( Pm_msg.Add_addr { token = 5; addr_id = 2; endpoint = Ip.endpoint (Ip.v4 10 9 9 9) 8080 },
      "4000000007000000040302010000000009000100020500000000000009000b00\
       020200000000000009000c00020909090a00000009000d0002901f0000000000" );
    ( Pm_msg.Rem_addr { token = 5; addr_id = 2 },
      "2800000008000000040302010000000009000100020500000000000009000b00\
       0202000000000000" );
    ( Pm_msg.New_local_addr { addr = Ip.v4 192 168 1 4; ifname = "wlan0" },
      "2800000009000000040302010000000009000c00020401a8c00000000a001800\
       04776c616e300000" );
    ( Pm_msg.Del_local_addr { addr = Ip.v4 192 168 1 4; ifname = "wlan0" },
      "280000000a000000040302010000000009000c00020401a8c00000000a001800\
       04776c616e300000" );
  ]

(* (command, without a key, under [key]) *)
let command_vectors =
  [
    ( Pm_msg.Subscribe { mask = Pm_msg.Mask.all },
      "1c00000014000000040302010000000009000e0002ff030000000000",
      "2800000014000000040302010000000009001e0002ea1dad2b00000009000e00\
       02ff030000000000" );
    ( Pm_msg.Create_subflow
        {
          token = 0xFEED;
          src = Ip.v4 10 0 1 1;
          src_port = Some 5555;
          dst = Ip.endpoint (Ip.v4 10 0 1 2) 80;
          backup = true;
        },
      "540000001500000004030201000000000900010002edfe000000000009000300\
       020101000a00000009000500020201000a000000090006000250000000000000\
       06000700010100000900040002b3150000000000",
      "6000000015000000040302010000000009001e0002ea1dad2b00000009000100\
       02edfe000000000009000300020101000a00000009000500020201000a000000\
       09000600025000000000000006000700010100000900040002b3150000000000" );
    ( Pm_msg.Create_subflow
        {
          token = 0xFEED;
          src = Ip.v4 10 0 1 1;
          src_port = None;
          dst = Ip.endpoint (Ip.v4 10 0 1 2) 80;
          backup = false;
        },
      "480000001500000004030201000000000900010002edfe000000000009000300\
       020101000a00000009000500020201000a000000090006000250000000000000\
       0600070001000000",
      "5400000015000000040302010000000009001e0002ea1dad2b00000009000100\
       02edfe000000000009000300020101000a00000009000500020201000a000000\
       0900060002500000000000000600070001000000" );
    ( Pm_msg.Remove_subflow { token = 1; sub_id = 2 },
      "2800000016000000040302010000000009000100020100000000000009000200\
       0202000000000000",
      "3400000016000000040302010000000009001e0002ea1dad2b00000009000100\
       0201000000000000090002000202000000000000" );
    ( Pm_msg.Set_backup { token = 1; sub_id = 2; backup = true },
      "3000000017000000040302010000000009000100020100000000000009000200\
       02020000000000000600070001010000",
      "3c00000017000000040302010000000009001e0002ea1dad2b00000009000100\
       02010000000000000900020002020000000000000600070001010000" );
    ( Pm_msg.Get_sub_info { token = 1; sub_id = 2 },
      "2800000018000000040302010000000009000100020100000000000009000200\
       0202000000000000",
      "3400000018000000040302010000000009001e0002ea1dad2b00000009000100\
       0201000000000000090002000202000000000000" );
    ( Pm_msg.Get_conn_info { token = 1 },
      "1c000000190000000403020100000000090001000201000000000000",
      "2800000019000000040302010000000009001e0002ea1dad2b00000009000100\
       0201000000000000" );
    ( Pm_msg.Dump,
      "100000001a0000000403020100000000",
      "1c0000001a000000040302010000000009001e0002ea1dad2b000000" );
    ( Pm_msg.Keepalive,
      "100000001b0000000403020100000000",
      "1c0000001b000000040302010000000009001e0002ea1dad2b000000" );
  ]

let reply_vectors =
  [
    ( Pm_msg.Ack,
      "100000001e0000000403020100000000" );
    ( Pm_msg.Error "no such connection",
      "280000001f000000040302010000000017001900046e6f207375636820636f6e\
       6e656374696f6e00" );
    ( sub_info,
      "a400000020000000040302010000000009000200020300000000000009001300\
       02030000000000000d0009000300ef1c0d000000000000000d00120003c0f35e\
       01000000000000000900110002606d00000000000d00100003a0252600000000\
       000000000d000f000340e20100000000000000000d001a0003e0220200000000\
       0000000009001b00020000000000000009001c00020700000000000006000700\
       01000000" );
    ( sub_info_unsampled,
      "a400000020000000040302010000000009000200020000000000000009001300\
       02010000000000000d0009000300ca9a3b000000000000000d00120003ffffff\
       ffffffffff0000000900110002b03600000000000d0010000300000000000000\
       000000000d000f000300000000000000000000000d001a000301000000000000\
       0000000009001b00020000000000000009001c00020000000000000006000700\
       01000000" );
    ( Pm_msg.R_conn_info
        {
          Pm_msg.ci_token = 0xFACE;
          ci_bytes_sent = 1_000_000;
          ci_bytes_acked = 900_000;
          ci_bytes_received = 12;
          ci_subflow_count = 4;
          ci_send_buffer = 100_000;
        },
      "680000002100000004030201000000000900010002cefa00000000000d001400\
       0340420f00000000000000000d00150003a0bb0d00000000000000000d001600\
       030c000000000000000000000900170002040000000000000d001d0003a08601\
       0000000000000000" );
    ( Pm_msg.R_dump [],
      "10000000220000000403020100000000" );
    ( Pm_msg.R_dump two_conns,
      "8001000022000000040302010000000011012000040c01000028000000000000\
       00000000000900010002efbe000000000006001f000101000009000300020100\
       000a0000000900040002cba8000000000009000500020201000a000000090006\
       0002500000000000005900210004540000002900000000000000000000000900\
       02000200000000000000060007000100000009000300020100000a0000000900\
       040002cba8000000000009000500020201000a00000009000600025000000000\
       0000000000590021000454000000290000000000000000000000090002000201\
       000000000000060007000101000009000300020102000a000000090004000240\
       9c000000000009000500020203000a0000000900060002bb0100000000000000\
       0000000059002000045400000028000000000000000000000009000100020700\
       000000000006001f000100000009000300020102000a0000000900040002409c\
       000000000009000500020203000a0000000900060002bb010000000000000000" );
  ]


let check_bytes what i expected bytes = checks (Printf.sprintf "%s %d" what i) expected (hex bytes)

let test_event_bytes () =
  List.iteri (fun i (ev, h) -> check_bytes "event" i h (Pm_msg.encode_event ~seq ev)) event_vectors

let test_command_bytes () =
  List.iteri
    (fun i (cmd, plain, keyed) ->
      check_bytes "command" i plain (Pm_msg.encode_command ~seq cmd);
      check_bytes "keyed command" i keyed (Pm_msg.encode_command ~key ~seq cmd))
    command_vectors

let test_reply_bytes () =
  List.iteri (fun i (r, h) -> check_bytes "reply" i h (Pm_msg.encode_reply ~seq r)) reply_vectors

(* What the two ends read off the channel, with the decoders they use: the
   PM library an event or a reply, the kernel a command and its key. *)
let read_kernel s =
  let v = Wire.view s in
  let m = if Pm_msg.is_event v then Ok (Pm_msg.event_of_view v) else Error (Pm_msg.reply_of_view v) in
  (Wire.seq v, m)

let read_command s =
  let v = Wire.view s in
  (Wire.seq v, Pm_msg.command_key v, Pm_msg.command_of_view v)

let test_event_roundtrips () =
  List.iteri
    (fun i (ev, _) ->
      checkb (Printf.sprintf "event %d roundtrips" i) true
        (read_kernel (Pm_msg.encode_event ~seq ev) = (seq, Ok ev)))
    event_vectors

let test_command_roundtrips () =
  List.iteri
    (fun i (cmd, _, _) ->
      List.iter
        (fun key ->
          checkb (Printf.sprintf "command %d roundtrips" i) true
            (read_command (Pm_msg.encode_command ?key ~seq cmd)
            = (seq, Option.value key ~default:(-1), cmd)))
        [ None; Some key ])
    command_vectors

let test_reply_roundtrips () =
  List.iteri
    (fun i (r, _) ->
      checkb (Printf.sprintf "reply %d roundtrips" i) true
        (read_kernel (Pm_msg.encode_reply ~seq r) = (seq, Error r)))
    reply_vectors

let test_srtt_none_roundtrip () =
  let bytes = Pm_msg.encode_reply ~seq:1 sub_info_unsampled in
  match read_kernel bytes with
  | _, Error (Pm_msg.R_sub_info (_, i)) ->
      checkb "srtt none preserved" true (i.Smapp_tcp.Tcp_info.srtt = None)
  | _ -> Alcotest.fail "roundtrip failed"

(* The two decoders that read the channel, the kernel's for commands and the
   PM library's for events and replies, answer any bytes with a value or
   [Wire.Malformed]. The inputs are the pinned vectors, cut short or
   corrupted. *)
let accepted read s = match read s with _ -> true | exception Wire.Malformed _ -> false

let pinned =
  List.map (fun (_, h) -> unhex h) event_vectors
  @ List.concat_map (fun (_, plain, keyed) -> [ unhex plain; unhex keyed ]) command_vectors
  @ List.map (fun (_, h) -> unhex h) reply_vectors

(* Framing alone rejects every prefix, whatever a decoder behind it would
   make of the attributes that are left. *)
let test_prefixes_rejected () =
  List.iter
    (fun s ->
      for n = 0 to String.length s - 1 do
        let p = String.sub s 0 n in
        if accepted Wire.view p || accepted read_kernel p then
          Alcotest.failf "%d-byte prefix of %s accepted" n (hex s)
      done)
    pinned

let attr_offsets s =
  let rec from off =
    if off >= String.length s then []
    else off :: from (off + ((String.get_uint16_le s off + 3) land lnot 3))
  in
  from 16

let mutant =
  QCheck.Gen.(
    let* s = oneofl pinned in
    let edit f =
      let b = Bytes.of_string s in
      f b;
      Bytes.to_string b
    in
    let byte =
      map2
        (fun i v -> edit (fun b -> Bytes.set_uint8 b i v))
        (int_bound (String.length s - 1))
        (int_bound 255)
    in
    let behind_header =
      map
        (fun tail ->
          let b = Bytes.of_string (String.sub s 0 16 ^ tail) in
          Bytes.set_int32_le b 0 (Int32.of_int (Bytes.length b));
          Bytes.to_string b)
        (string_size (int_range 0 64))
    in
    let attr =
      match attr_offsets s with
      | [] -> []
      | offs ->
          [
            map2
              (fun off len -> edit (fun b -> Bytes.set_uint16_le b off len))
              (oneofl offs)
              (oneof [ int_bound 32; int_bound 0xffff ]);
            map2
              (fun off kind -> edit (fun b -> Bytes.set_uint8 b (off + 4) kind))
              (oneofl offs) (int_bound 255);
          ]
    in
    oneof (byte :: behind_header :: attr))

let prop_decoders_never_raise =
  QCheck.Test.make ~name:"decoders never raise" ~count:2000 (QCheck.make ~print:hex mutant)
    (fun s ->
      ignore (accepted read_command s);
      ignore (accepted read_kernel s);
      true)

let test_errno_codes () =
  checki "etimedout" 110 (Pm_msg.errno_code Smapp_tcp.Tcp_error.Etimedout);
  checki "econnreset" 104 (Pm_msg.errno_code Smapp_tcp.Tcp_error.Econnreset);
  checkb "0 is clean close" true (Pm_msg.errno_of_code 0 = None);
  List.iter
    (fun e ->
      checkb "errno roundtrip" true (Pm_msg.errno_of_code (Pm_msg.errno_code e) = Some e))
    Smapp_tcp.Tcp_error.[ Etimedout; Econnreset; Econnrefused; Enetunreach; Ehostunreach ]

let test_mask_of_event () =
  checki "created" Pm_msg.Mask.created
    (Pm_msg.mask_of_event (Pm_msg.Created { token = 1; flow = sample_flow; sub_id = 0 }));
  checki "timeout" Pm_msg.Mask.timeout
    (Pm_msg.mask_of_event
       (Pm_msg.Timeout { token = 1; sub_id = 0; rto = Time.span_s 1; count = 1 }));
  checki "all covers everything" 1023 Pm_msg.Mask.all;
  List.iter
    (fun (ev, _) ->
      checkb "bit below event_kinds" true (Pm_msg.event_bit ev < Pm_msg.event_kinds);
      checkb "bit inside all" true (Pm_msg.mask_of_event ev land Pm_msg.Mask.all <> 0))
    event_vectors

let () =
  Alcotest.run "netlink"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip_simple;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "missing attr" `Quick test_wire_missing_attr;
        ]
        @ List.map QCheck_alcotest.to_alcotest wire_props );
      ( "channel",
        [
          Alcotest.test_case "latency" `Quick test_channel_latency;
          Alcotest.test_case "stress factor" `Quick test_channel_stress_factor;
          Alcotest.test_case "counters" `Quick test_channel_counters;
          Alcotest.test_case "fifo under every tie order" `Quick
            test_fifo_under_every_tie_order;
        ] );
      ( "pm_msg",
        [
          Alcotest.test_case "events" `Quick test_event_roundtrips;
          Alcotest.test_case "commands" `Quick test_command_roundtrips;
          Alcotest.test_case "replies" `Quick test_reply_roundtrips;
          Alcotest.test_case "srtt none" `Quick test_srtt_none_roundtrip;
          Alcotest.test_case "errno codes" `Quick test_errno_codes;
          Alcotest.test_case "event masks" `Quick test_mask_of_event;
          Alcotest.test_case "event bytes" `Quick test_event_bytes;
          Alcotest.test_case "command bytes" `Quick test_command_bytes;
          Alcotest.test_case "reply bytes" `Quick test_reply_bytes;
          Alcotest.test_case "strict prefixes rejected" `Quick test_prefixes_rejected;
          QCheck_alcotest.to_alcotest prop_decoders_never_raise;
        ] );
    ]
