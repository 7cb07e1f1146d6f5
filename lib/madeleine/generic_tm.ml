type packet_header = {
  final_dst : int;
  origin : int;
  payload_len : int;
  first : bool;
  last : bool;
  seq : int;  (* 16-bit end-to-end sequence number, 0 when unreliable *)
  ack : bool;  (* cumulative acknowledgment packet (reliable vchannels) *)
  hs : bool;  (* session handshake after a crash epoch (reliable vchannels) *)
  crd : bool;  (* credit-plane packet: grant (4-byte payload) or probe (empty) *)
  agg : bool;  (* aggregate: payload is a train of flow-framed sub-packets *)
  top : bool;  (* topology-control packet: join/drain/epoch announcements *)
  col : bool;  (* collective-control packet: contribution / decision frames *)
}

let header ~origin ~final_dst ~payload_len =
  {
    final_dst;
    origin;
    payload_len;
    first = false;
    last = false;
    seq = 0;
    ack = false;
    hs = false;
    crd = false;
    agg = false;
    top = false;
    col = false;
  }

let header_size = Config.packet_header_size
let magic = '\xAD'

let encode_header h =
  let b = Bytes.make header_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int h.final_dst);
  Bytes.set_int32_le b 4 (Int32.of_int h.origin);
  Bytes.set_int32_le b 8 (Int32.of_int h.payload_len);
  let flags =
    (if h.first then 1 else 0)
    lor (if h.last then 2 else 0)
    lor (if h.ack then 4 else 0)
    lor (if h.hs then 8 else 0)
    lor (if h.crd then 16 else 0)
    lor (if h.agg then 32 else 0)
    lor (if h.top then 64 else 0)
    lor if h.col then 128 else 0
  in
  Bytes.set b 12 (Char.chr flags);
  Bytes.set b 13 magic;
  (* Bytes 14-15 were reserved; seq = 0 keeps the unreliable encoding
     byte-identical to the pre-reliability wire format. *)
  Bytes.set_uint16_le b 14 (h.seq land 0xffff);
  b

let decode_header b =
  if Bytes.length b < header_size then
    invalid_arg "Generic_tm.decode_header: short header";
  if Bytes.get b 13 <> magic then
    invalid_arg "Generic_tm.decode_header: bad magic";
  let flags = Char.code (Bytes.get b 12) in
  {
    final_dst = Int32.to_int (Bytes.get_int32_le b 0);
    origin = Int32.to_int (Bytes.get_int32_le b 4);
    payload_len = Int32.to_int (Bytes.get_int32_le b 8);
    first = flags land 1 <> 0;
    last = flags land 2 <> 0;
    seq = Bytes.get_uint16_le b 14;
    ack = flags land 4 <> 0;
    hs = flags land 8 <> 0;
    crd = flags land 16 <> 0;
    agg = flags land 32 <> 0;
    top = flags land 64 <> 0;
    col = flags land 128 <> 0;
  }

let sub_header_size = Config.buffer_header_size

let encode_sub_header ~len s r =
  let b = Bytes.make sub_header_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set b 4 (Char.chr (Iface.send_mode_to_int s));
  Bytes.set b 5 (Char.chr (Iface.recv_mode_to_int r));
  Bytes.set b 6 magic;
  b

let decode_sub_header b =
  if Bytes.length b < sub_header_size then
    invalid_arg "Generic_tm.decode_sub_header: short header";
  if Bytes.get b 6 <> magic then
    invalid_arg "Generic_tm.decode_sub_header: bad magic";
  ( Int32.to_int (Bytes.get_int32_le b 0),
    Iface.send_mode_of_int (Char.code (Bytes.get b 4)),
    Iface.recv_mode_of_int (Char.code (Bytes.get b 5)) )

(* Flow frames: inside an [agg] packet the payload is a train of
   sub-packets, each belonging to one logical flow. The frame header
   carries what the outer header carries for a plain packet — length
   and first/last message delimiters — plus the 16-bit flow id that
   multiplexes thousands of logical channels over one physical route. *)

let flow_frame_header_size = 8

let encode_flow_frame_header ~flow ~first ~last ~len =
  if flow < 0 || flow > 0xffff then
    invalid_arg "Generic_tm.encode_flow_frame_header: flow id out of range";
  let b = Bytes.make flow_frame_header_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_uint16_le b 4 flow;
  let flags = (if first then 1 else 0) lor if last then 2 else 0 in
  Bytes.set b 6 (Char.chr flags);
  Bytes.set b 7 magic;
  b

let decode_flow_frame_header b off =
  if Bytes.length b < off + flow_frame_header_size then
    invalid_arg "Generic_tm.decode_flow_frame_header: short header";
  if Bytes.get b (off + 7) <> magic then
    invalid_arg "Generic_tm.decode_flow_frame_header: bad magic";
  let flags = Char.code (Bytes.get b (off + 6)) in
  ( Bytes.get_uint16_le b (off + 4),
    flags land 1 <> 0,
    flags land 2 <> 0,
    Int32.to_int (Bytes.get_int32_le b (off + 0)) )
