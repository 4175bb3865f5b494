(* Packet.Wire: codec round-trips, checksum detection, size accounting. *)

module H = Packet.Header
module S = Packet.Serial

let sample_data =
  H.Data
    {
      seq = S.of_int 1234567;
      tstamp = 12.5;
      rtt_estimate = 0.134;
      is_retransmit = true;
      fwd_point = S.of_int 1234000;
    }

let sample_feedback =
  H.Feedback
    {
      tstamp_echo = 99.25;
      t_delay = 0.002;
      x_recv = 1.25e6;
      p = 0.0123;
      recv_seq = S.of_int 424242;
    }

let sample_sack blocks =
  H.Sack_feedback
    {
      cum_ack = S.of_int 1000;
      blocks;
      sack_tstamp_echo = 1.5;
      sack_t_delay = 0.001;
      sack_x_recv = 2.0e6;
      sack_ce_count = 7;
    }

let block a b = { H.block_start = S.of_int a; block_end = S.of_int b }

let sample_handshake kind payload = H.Handshake { kind; payload }

let hdr_equal a b = a = b

let roundtrip name hdr () =
  let encoded = Packet.Wire.encode hdr in
  let decoded = Packet.Wire.decode encoded in
  Alcotest.(check bool) (name ^ " round-trips") true (hdr_equal hdr decoded)

let test_data_size_matches () =
  let encoded = Packet.Wire.encode sample_data in
  Alcotest.(check int)
    "encoded size = declared header size" H.data_header_bytes
    (Bytes.length encoded)

let test_feedback_size_matches () =
  let encoded = Packet.Wire.encode sample_feedback in
  Alcotest.(check int) "feedback size" H.feedback_bytes (Bytes.length encoded)

let test_sack_size_matches () =
  let hdr = sample_sack [ block 1100 1105; block 1110 1120 ] in
  let encoded = Packet.Wire.encode hdr in
  Alcotest.(check int)
    "sack size" (H.sack_feedback_bytes ~blocks:2) (Bytes.length encoded)

let test_checksum_detects_corruption () =
  let encoded = Packet.Wire.encode sample_feedback in
  (* Flip one payload byte. *)
  let i = Bytes.length encoded - 3 in
  Bytes.set_uint8 encoded i (Bytes.get_uint8 encoded i lxor 0xFF);
  Alcotest.check_raises "corruption detected"
    (Packet.Wire.Malformed "checksum mismatch") (fun () ->
      ignore (Packet.Wire.decode encoded))

let test_truncation_detected () =
  let encoded = Packet.Wire.encode sample_data in
  let short = Bytes.sub encoded 0 (Bytes.length encoded - 2) in
  Alcotest.(check bool) "truncation raises" true
    (try
       ignore (Packet.Wire.decode short);
       false
     with Packet.Wire.Malformed _ -> true)

let test_bad_tag () =
  let encoded = Packet.Wire.encode sample_data in
  Bytes.set_uint8 encoded 0 99;
  Alcotest.(check bool) "bad tag raises" true
    (try
       ignore (Packet.Wire.decode encoded);
       false
     with Packet.Wire.Malformed _ -> true)

let test_fletcher_known () =
  (* Fletcher-16 of "abcde" = 0xC8F0 per the classic example. *)
  let buf = Bytes.of_string "abcde" in
  Alcotest.(check int) "fletcher16(abcde)" 0xC8F0
    (Packet.Wire.fletcher16 buf ~pos:0 ~len:5)

let gen_header =
  let open QCheck.Gen in
  let serial = map S.of_int (int_bound 0xFFFFFFFF) in
  let pos_float = map Float.abs (float_bound_exclusive 1e6) in
  oneof
    [
      map (fun ((seq, tstamp, rtt), (retx, fwd)) ->
          H.Data
            {
              seq;
              tstamp;
              rtt_estimate = rtt;
              is_retransmit = retx;
              fwd_point = fwd;
            })
        (pair (triple serial pos_float pos_float) (pair bool serial));
      map (fun ((e, d, x), (p, r)) ->
          H.Feedback
            { tstamp_echo = e; t_delay = d; x_recv = x; p; recv_seq = r })
        (pair (triple pos_float pos_float pos_float) (pair pos_float serial));
      map (fun (((cum, blocks), ce), (e, d, x)) ->
          let blocks =
            List.map
              (fun (a, len) ->
                let a = S.of_int a in
                { H.block_start = a; block_end = S.add a (1 + (len land 0xFF)) })
              blocks
          in
          H.Sack_feedback
            {
              cum_ack = cum;
              blocks;
              sack_tstamp_echo = e;
              sack_t_delay = d;
              sack_x_recv = x;
              sack_ce_count = ce;
            })
        (pair
           (pair
              (pair serial
                 (list_size (int_bound 8)
                    (pair (int_bound 0xFFFFFFFF) small_nat)))
              (int_bound 1_000_000))
           (triple pos_float pos_float pos_float));
      map (fun (kind, payload) ->
          let kind =
            match kind land 3 with
            | 0 -> H.Syn
            | 1 -> H.Syn_ack
            | _ -> H.Ack_hs
          in
          H.Handshake { kind; payload })
        (pair small_nat (string_size (int_bound 200)));
    ]

let prop_roundtrip =
  QCheck.Test.make ~name:"wire codec round-trips arbitrary headers" ~count:500
    (QCheck.make gen_header)
    (fun hdr -> hdr_equal hdr (Packet.Wire.decode (Packet.Wire.encode hdr)))

let prop_decode_total =
  (* Fuzz: arbitrary bytes either decode or raise Malformed — never any
     other exception, never a crash. *)
  QCheck.Test.make ~name:"decode is total (Malformed or a header)" ~count:500
    QCheck.(string_of_size Gen.(int_bound 120))
    (fun s ->
      match Packet.Wire.decode (Bytes.of_string s) with
      | _ -> true
      | exception Packet.Wire.Malformed _ -> true)

let prop_bitflip_detected_or_decodes =
  (* Flipping any single byte of a valid encoding must either be caught
     by the checksum or produce a (different) well-formed decode — it
     must never escape as an unexpected exception. *)
  QCheck.Test.make ~name:"single corruption never crashes the decoder"
    ~count:300
    (QCheck.make QCheck.Gen.(pair gen_header (pair (int_bound 1000) (int_range 1 255))))
    (fun (hdr, (pos, flip)) ->
      let buf = Packet.Wire.encode hdr in
      let i = pos mod Bytes.length buf in
      Bytes.set_uint8 buf i (Bytes.get_uint8 buf i lxor flip);
      match Packet.Wire.decode buf with
      | _ -> true
      | exception Packet.Wire.Malformed _ -> true)

let suite =
  [
    Alcotest.test_case "data round-trip" `Quick (roundtrip "data" sample_data);
    Alcotest.test_case "feedback round-trip" `Quick
      (roundtrip "feedback" sample_feedback);
    Alcotest.test_case "sack round-trip (0 blocks)" `Quick
      (roundtrip "sack0" (sample_sack []));
    Alcotest.test_case "sack round-trip (3 blocks)" `Quick
      (roundtrip "sack3" (sample_sack [ block 1100 1105; block 1110 1120; block 2000 2001 ]));
    Alcotest.test_case "handshake round-trip" `Quick
      (roundtrip "hs" (sample_handshake H.Syn "qtp1-offer;planes=std"));
    Alcotest.test_case "data size" `Quick test_data_size_matches;
    Alcotest.test_case "feedback size" `Quick test_feedback_size_matches;
    Alcotest.test_case "sack size" `Quick test_sack_size_matches;
    Alcotest.test_case "checksum detects corruption" `Quick
      test_checksum_detects_corruption;
    Alcotest.test_case "truncation detected" `Quick test_truncation_detected;
    Alcotest.test_case "bad tag" `Quick test_bad_tag;
    Alcotest.test_case "fletcher16 known value" `Quick test_fletcher_known;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_decode_total;
    QCheck_alcotest.to_alcotest prop_bitflip_detected_or_decodes;
  ]
