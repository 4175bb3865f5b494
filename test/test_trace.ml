(* The trace library in isolation: ring eviction accounting, the
   ambient recorder registry, sink gating, canonical serialisation and
   the line diff. *)

let ev_state s = Trace.Event.Conn_state { state = s }

let test_ring_basic () =
  let r = Trace.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty length" 0 (Trace.Ring.length r);
  Trace.Ring.push r ~at:1.0 (ev_state "a");
  Trace.Ring.push r ~at:2.0 (ev_state "b");
  Alcotest.(check int) "length" 2 (Trace.Ring.length r);
  Alcotest.(check int) "total" 2 (Trace.Ring.total r);
  Alcotest.(check int) "dropped" 0 (Trace.Ring.dropped r);
  match Trace.Ring.to_list r with
  | [ e1; e2 ] ->
      Alcotest.(check (float 0.0)) "first at" 1.0 e1.Trace.Ring.at;
      Alcotest.(check (float 0.0)) "second at" 2.0 e2.Trace.Ring.at
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let test_ring_eviction () =
  let r = Trace.Ring.create ~capacity:3 in
  for i = 1 to 7 do
    Trace.Ring.push r ~at:(float_of_int i) (ev_state (string_of_int i))
  done;
  Alcotest.(check int) "length capped" 3 (Trace.Ring.length r);
  Alcotest.(check int) "total counts evictions" 7 (Trace.Ring.total r);
  Alcotest.(check int) "dropped" 4 (Trace.Ring.dropped r);
  let ats = List.map (fun e -> e.Trace.Ring.at) (Trace.Ring.to_list r) in
  Alcotest.(check (list (float 0.0))) "newest window kept" [ 5.0; 6.0; 7.0 ] ats

let test_ring_capacity_validation () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Trace.Ring.create: capacity < 1") (fun () ->
      ignore (Trace.Ring.create ~capacity:0))

let test_recorder_ambient () =
  Alcotest.(check bool) "off before install" false (Trace.Recorder.on ());
  (* emit without a recorder: a silent no-op *)
  Trace.Recorder.emit ~flow:0 ~at:0.0 (ev_state "dropped-on-floor");
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Alcotest.(check bool) "on inside" true (Trace.Recorder.on ());
        Trace.Recorder.emit ~flow:3 ~at:1.0 (ev_state "x");
        Trace.Recorder.emit ~flow:1 ~at:2.0 (ev_state "y");
        Trace.Recorder.emit ~flow:3 ~at:3.0 (ev_state "z"))
  in
  Alcotest.(check bool) "off after" false (Trace.Recorder.on ());
  Alcotest.(check int) "events" 3 (Trace.Recorder.events rec_);
  Alcotest.(check (list int)) "flows ascending" [ 1; 3 ]
    (Trace.Recorder.flows rec_);
  match Trace.Recorder.ring rec_ ~flow:3 with
  | None -> Alcotest.fail "flow 3 ring missing"
  | Some ring -> Alcotest.(check int) "flow 3 events" 2 (Trace.Ring.total ring)

let test_recorder_clear_on_exception () =
  (try
     ignore
       (Trace.Recorder.with_recorder (fun () -> failwith "boom") : unit * _)
   with Failure _ -> ());
  Alcotest.(check bool) "cleared after exception" false (Trace.Recorder.on ())

let test_sink_gating () =
  let clock = ref 5.0 in
  let sink = Some (Trace.Sink.make ~flow:7 ~now:(fun () -> !clock)) in
  Alcotest.(check bool) "sink off without recorder" false (Trace.Sink.on sink);
  Alcotest.(check bool) "no sink is off" false (Trace.Sink.on None);
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Alcotest.(check bool) "sink on" true (Trace.Sink.on sink);
        Trace.Sink.emit sink (ev_state "a");
        clock := 6.5;
        Trace.Sink.emit sink (ev_state "b");
        Trace.Sink.emit None (ev_state "swallowed"))
  in
  match Trace.Recorder.ring rec_ ~flow:7 with
  | None -> Alcotest.fail "sink flow missing"
  | Some ring -> (
      match Trace.Ring.to_list ring with
      | [ a; b ] ->
          Alcotest.(check (float 0.0)) "sink stamped t1" 5.0 a.Trace.Ring.at;
          Alcotest.(check (float 0.0)) "sink stamped t2" 6.5 b.Trace.Ring.at
      | l -> Alcotest.failf "expected 2 sink events, got %d" (List.length l))

(* Recording cost, in words per call of the zero-allocation sinks, on
   a sink clocked by a simulation as the protocol endpoints use it.
   With no recorder installed a present sink costs nothing; with one
   installed, [seg_send] costs at most the boxed clock read, also once
   the journal has wrapped. *)
let sink_words ~calls f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_sink_words () =
  let sim = Engine.Sim.create ~seed:1 () in
  let sink = Some (Trace.Sink.of_sim sim ~flow:3) in
  let seq = Packet.Serial.of_int 17 and cum_ack = Packet.Serial.of_int 9 in
  let seg_send () = Trace.Sink.seg_send sink ~seq ~size:1000 ~retx:false in
  let sack_rcvd () =
    Trace.Sink.sack_rcvd sink ~cum_ack ~blocks:2 ~acked:1 ~sacked:3 ~lost:0
  in
  Alcotest.(check (float 0.0)) "seg_send, recorder off" 0.0
    (sink_words ~calls:1000 seg_send);
  Alcotest.(check (float 0.0)) "sack_rcvd, recorder off" 0.0
    (sink_words ~calls:1000 sack_rcvd);
  let on, _ =
    Trace.Recorder.with_recorder ~capacity:64 (fun () ->
        for _ = 1 to 1000 do
          seg_send ()
        done;
        sink_words ~calls:10_000 seg_send)
  in
  Alcotest.(check bool)
    (Printf.sprintf "seg_send, recorder on: %.3f words <= 2" on)
    true (on <= 2.0)

(* The packed codec round-trips the handover vocabulary: tag-18
   [Handover] with interned path names, and the 2-bit drop-reason aux
   including [D_cut]. *)
let test_codec_handover_roundtrip () =
  let evs =
    [
      Trace.Event.Handover
        { from_path = "wifi"; to_path = "cellular"; cut = false };
      Trace.Event.Handover
        { from_path = "cellular"; to_path = "sat"; cut = true };
      (* repeat an interned name to exercise the string table *)
      Trace.Event.Handover { from_path = "sat"; to_path = "wifi"; cut = false };
      Trace.Event.Drop { link = "l0"; reason = Trace.Event.D_loss; size = 1500 };
      Trace.Event.Drop { link = "l0"; reason = Trace.Event.D_queue; size = 576 };
      Trace.Event.Drop { link = "l1"; reason = Trace.Event.D_cut; size = 1500 };
    ]
  in
  let r = Trace.Ring.create ~capacity:16 in
  List.iteri (fun i ev -> Trace.Ring.push r ~at:(float_of_int i) ev) evs;
  let back = List.map (fun e -> e.Trace.Ring.ev) (Trace.Ring.to_list r) in
  Alcotest.(check int) "all entries survive" (List.length evs)
    (List.length back);
  List.iteri
    (fun i (orig, dec) ->
      Alcotest.(check bool)
        (Printf.sprintf "event %d round-trips" i)
        true (orig = dec))
    (List.combine evs back);
  (* Canonical bodies are injective over the new fields. *)
  let line ev = Format.asprintf "%a" Trace.Event.pp_canonical ev in
  let lines = List.map line back in
  Alcotest.(check int) "canonical lines distinct" (List.length evs)
    (List.length (List.sort_uniq compare lines))

let test_canonical_shape () =
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Trace.Recorder.emit ~flow:0 ~at:0.25
          (Trace.Event.Rate_change
             {
               x_bps = 1e6;
               x_calc_bps = Float.infinity;
               x_recv_bps = 5e5;
               p = 0.0;
               slow_start = true;
             });
        Trace.Recorder.emit ~flow:0 ~at:0.5
          (Trace.Event.Seg_send
             { seq = Packet.Serial.zero; size = 1500; retx = false }))
  in
  let text = Trace.Export.canonical rec_ in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | magic :: flow_hdr :: _ ->
      Alcotest.(check string) "magic line" Trace.Export.magic magic;
      Alcotest.(check string) "flow header" "flow 0 events=2 dropped=0"
        flow_hdr
  | _ -> Alcotest.fail "canonical too short");
  Alcotest.(check bool) "hex float timestamps"
    true
    (List.exists
       (fun l -> String.length l > 2 && String.sub l 0 2 = "0x")
       lines);
  (* Serialisation is a pure function of the recorder. *)
  Alcotest.(check string) "stable on re-export" text
    (Trace.Export.canonical rec_);
  Alcotest.(check string) "digest = digest_of_string"
    (Trace.Export.digest rec_)
    (Trace.Export.digest_of_string text)

let test_diff () =
  let a = "# vtp-trace-1\nflow 0 events=2 dropped=0\nl1\nl2\n" in
  Alcotest.(check bool) "equal -> None" true (Trace.Export.diff a a = None);
  let b = "# vtp-trace-1\nflow 0 events=2 dropped=0\nl1\nDIFFERENT\n" in
  (match Trace.Export.diff a b with
  | Some { Trace.Export.line = 4; left = Some "l2"; right = Some "DIFFERENT" }
    ->
      ()
  | Some d ->
      Alcotest.failf "wrong divergence: line %d %a" d.Trace.Export.line
        Trace.Export.pp_divergence d
  | None -> Alcotest.fail "diff missed the mismatch");
  (* One side a strict prefix of the other. *)
  let c = "# vtp-trace-1\nflow 0 events=2 dropped=0\nl1\nl2\nl3\n" in
  match Trace.Export.diff a c with
  | Some { Trace.Export.line = 5; left = Some ""; right = Some "l3" } -> ()
  | Some d ->
      Alcotest.failf "wrong prefix divergence: %a" Trace.Export.pp_divergence d
  | None -> Alcotest.fail "diff missed the extra line"

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let test_json_export () =
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Trace.Recorder.emit ~flow:2 ~at:1.0
          (Trace.Event.Rtt_sample { sample = 0.1; srtt = 0.12 }))
  in
  let s =
    Stats.Json.to_string
      (Trace.Export.to_json ~meta:[ ("k", Stats.Json.String "v") ] rec_)
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true (contains ~needle s))
    [ "vtp-qlog-1"; "rtt_sample"; "\"flow\": 2"; "\"k\": \"v\"" ]

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "ring capacity validated" `Quick
      test_ring_capacity_validation;
    Alcotest.test_case "recorder ambient registry" `Quick test_recorder_ambient;
    Alcotest.test_case "recorder clears on exception" `Quick
      test_recorder_clear_on_exception;
    Alcotest.test_case "sink gating and stamping" `Quick test_sink_gating;
    Alcotest.test_case "sink recording words" `Quick test_sink_words;
    Alcotest.test_case "handover/D_cut codec round-trip" `Quick
      test_codec_handover_roundtrip;
    Alcotest.test_case "canonical shape" `Quick test_canonical_shape;
    Alcotest.test_case "diff pinpoints first divergence" `Quick test_diff;
    Alcotest.test_case "qlog JSON export" `Quick test_json_export;
  ]
