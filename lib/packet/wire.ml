exception Malformed of string

(* Accumulators ride in parameters rather than two [ref] cells: the
   checksum runs once per encode/decode, so keep it allocation-free. *)
let[@vtp.hot] rec fletcher_pass buf i stop sum1 sum2 =
  if i > stop then (sum2 lsl 8) lor sum1
  else
    let sum1 = (sum1 + Char.code (Bytes.get buf i)) mod 255 in
    fletcher_pass buf (i + 1) stop sum1 ((sum2 + sum1) mod 255)

let[@vtp.hot] fletcher16 buf ~pos ~len =
  fletcher_pass buf pos (pos + len - 1) 0 0

(* Tags for the common prefix. *)
let tag_data = 1
let tag_feedback = 2
let tag_sack = 3
let tag_handshake = 4

module W = struct
  (* every writer primitive sits on the encode fast path *)
  [@@@vtp.hot]

  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create n; len = 0 }

  let ensure t n =
    if t.len + n > Bytes.length t.buf then begin
      let buf = Bytes.create (Stdlib.max (t.len + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let u8 t v =
    ensure t 1;
    Bytes.set_uint8 t.buf t.len (v land 0xFF);
    t.len <- t.len + 1

  let u16 t v =
    ensure t 2;
    Bytes.set_uint16_be t.buf t.len (v land 0xFFFF);
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_be t.buf t.len (Int32.of_int (v land 0xFFFFFFFF));
    t.len <- t.len + 4

  let f64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len (Int64.bits_of_float v);
    t.len <- t.len + 8

  let string t s =
    ensure t (String.length s);
    Bytes.blit_string s 0 t.buf t.len (String.length s);
    t.len <- t.len + String.length s
end

module R = struct
  type t = { buf : Bytes.t; mutable pos : int }

  let create buf pos = { buf; pos }

  let need t n =
    if t.pos + n > Bytes.length t.buf then raise (Malformed "truncated")

  let u8 t =
    need t 1;
    let v = Bytes.get_uint8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_be t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let f64 t =
    need t 8;
    let v = Int64.float_of_bits (Bytes.get_int64_be t.buf t.pos) in
    t.pos <- t.pos + 8;
    v

  let string t n =
    need t n;
    let s = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    s
end

let write_body w hdr =
  match hdr with
  | Header.Data d ->
      W.u32 w (Serial.to_int d.seq);
      W.f64 w d.tstamp;
      W.f64 w d.rtt_estimate;
      W.u8 w (if d.is_retransmit then 1 else 0);
      W.u32 w (Serial.to_int d.fwd_point)
  | Header.Feedback f ->
      W.f64 w f.tstamp_echo;
      W.f64 w f.t_delay;
      W.f64 w f.x_recv;
      W.f64 w f.p;
      W.u32 w (Serial.to_int f.recv_seq)
  | Header.Sack_feedback sf ->
      W.u32 w (Serial.to_int sf.cum_ack);
      let blocks = sf.blocks in
      W.u8 w (List.length blocks);
      List.iter
        (fun { Header.block_start; block_end } ->
          W.u32 w (Serial.to_int block_start);
          W.u32 w (Serial.to_int block_end))
        blocks;
      W.f64 w sf.sack_tstamp_echo;
      W.f64 w sf.sack_t_delay;
      W.f64 w sf.sack_x_recv;
      W.u32 w sf.sack_ce_count
  | Header.Handshake h ->
      let kind =
        match h.kind with
        | Syn -> 0
        | Syn_ack -> 1
        | Ack_hs -> 2
        | Close -> 3
        | Close_ack -> 4
      in
      W.u8 w kind;
      W.u16 w (String.length h.payload);
      W.string w h.payload

let tag_of = function
  | Header.Data _ -> tag_data
  | Header.Feedback _ -> tag_feedback
  | Header.Sack_feedback _ -> tag_sack
  | Header.Handshake _ -> tag_handshake

(* One scratch writer per domain: the 4-byte prefix and the body are
   laid out in place and the only per-call allocation is the returned
   copy.  A simulation runs entirely on one domain and [write_body]
   cannot re-enter [encode], so domain-local reuse is safe — and
   parallel simulations (Engine.Pool) never share a buffer. *)
let scratch = Domain.DLS.new_key (fun () -> W.create 256)

let[@vtp.hot] encode hdr =
  let w = Domain.DLS.get scratch in
  w.W.len <- 0;
  W.u8 w (tag_of hdr);
  W.u8 w 0;
  W.u16 w 0 (* checksum, patched once the body is in place *);
  write_body w hdr;
  let ck = fletcher16 w.W.buf ~pos:4 ~len:(w.W.len - 4) in
  Bytes.set_uint16_be w.W.buf 2 ck;
  Bytes.sub w.W.buf 0 w.W.len

let decode buf =
  if Bytes.length buf < 4 then raise (Malformed "short prefix");
  let tag = Bytes.get_uint8 buf 0 in
  let ck = Bytes.get_uint16_be buf 2 in
  let body_len = Bytes.length buf - 4 in
  if fletcher16 buf ~pos:4 ~len:body_len <> ck then
    raise (Malformed "checksum mismatch");
  let r = R.create buf 4 in
  if tag = tag_data then
    let seq = Serial.of_int (R.u32 r) in
    let tstamp = R.f64 r in
    let rtt_estimate = R.f64 r in
    let is_retransmit = R.u8 r <> 0 in
    let fwd_point = Serial.of_int (R.u32 r) in
    Header.Data { seq; tstamp; rtt_estimate; is_retransmit; fwd_point }
  else if tag = tag_feedback then
    let tstamp_echo = R.f64 r in
    let t_delay = R.f64 r in
    let x_recv = R.f64 r in
    let p = R.f64 r in
    let recv_seq = Serial.of_int (R.u32 r) in
    Header.Feedback { tstamp_echo; t_delay; x_recv; p; recv_seq }
  else if tag = tag_sack then begin
    let cum_ack = Serial.of_int (R.u32 r) in
    let n = R.u8 r in
    let blocks =
      List.init n (fun _ ->
          let block_start = Serial.of_int (R.u32 r) in
          let block_end = Serial.of_int (R.u32 r) in
          { Header.block_start; block_end })
    in
    let sack_tstamp_echo = R.f64 r in
    let sack_t_delay = R.f64 r in
    let sack_x_recv = R.f64 r in
    let sack_ce_count = R.u32 r in
    Header.Sack_feedback
      {
        cum_ack;
        blocks;
        sack_tstamp_echo;
        sack_t_delay;
        sack_x_recv;
        sack_ce_count;
      }
  end
  else if tag = tag_handshake then begin
    let kind =
      match R.u8 r with
      | 0 -> Header.Syn
      | 1 -> Header.Syn_ack
      | 2 -> Header.Ack_hs
      | 3 -> Header.Close
      | 4 -> Header.Close_ack
      | k -> raise (Malformed (Printf.sprintf "handshake kind %d" k))
    in
    let len = R.u16 r in
    let payload = R.string r len in
    Header.Handshake { kind; payload }
  end
  else raise (Malformed (Printf.sprintf "tag %d" tag))
