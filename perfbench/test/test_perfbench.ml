(* The benchmark's own arithmetic: exact allocation counting, span self
   time and self words, the percentile rule and the scheduler replay. *)

open Perfbench

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Exact counters *)

let list_words () =
  let l, w = Alloc.measure (fun () -> List.init 10_000 Fun.id) in
  ignore (Sys.opaque_identity l);
  feq "10,000 list cells" 30_000.0 w

let major_words () =
  let a, w = Alloc.measure (fun () -> Array.make 100_000 0) in
  ignore (Sys.opaque_identity a);
  feq "direct major allocation, header included" 100_001.0 w;
  let f, w = Alloc.measure (fun () -> Array.make 1_000 0.0) in
  ignore (Sys.opaque_identity f);
  feq "float array just past the minor limit" 1_001.0 w

let nothing_costs_nothing () =
  let (), w = Alloc.measure (fun () -> ()) in
  feq "empty" 0.0 w

(* ------------------------------------------------------------------ *)
(* Spans under a scripted clock and word counter *)

let scripted values =
  let q = Queue.of_seq (List.to_seq values) in
  fun () -> Queue.pop q

(* enter reads words then time; leave reads time then words. *)
let nested_injection () =
  let clock = scripted [ 0.0; 2.0; 5.0; 10.0 ] in
  let words = scripted [ 0.0; 10.0; 40.0; 100.0 ] in
  let sp = Span.make ~clock ~words Layers.names in
  Span.enter sp Layers.rx_af;
  Span.enter sp Layers.inject;
  Span.leave sp;
  Span.leave sp;
  feq "receive self time" 7.0 (Span.self_s sp Layers.rx_af);
  feq "injection self time" 3.0 (Span.self_s sp Layers.inject);
  feq "receive self words" 70.0 (Span.self_w sp Layers.rx_af);
  feq "injection self words" 30.0 (Span.self_w sp Layers.inject);
  Alcotest.(check int) "calls" 1 (Span.calls sp Layers.inject)

(* Traced time 0..20 with spans [1,4] (holding [2,3]) and [6,15]
   (holding [7,9] and [10,14]); the rest is engine time outside spans. *)
let self_times_sum_to_total () =
  let marks = [ 1.0; 2.0; 3.0; 4.0; 6.0; 7.0; 9.0; 10.0; 14.0; 15.0 ] in
  let clock = scripted marks in
  let words = fun () -> 0.0 in
  let sp = Span.make ~clock ~words Layers.names in
  Span.enter sp Layers.fb_af;
  Span.enter sp Layers.inject;
  Span.leave sp;
  Span.leave sp;
  Span.enter sp Layers.rx_af;
  Span.enter sp Layers.trunk_take;
  Span.leave sp;
  Span.enter sp Layers.inject;
  Span.leave sp;
  Span.leave sp;
  let total = 20.0 in
  let other = total -. Span.total_self sp in
  feq "outside every span" 8.0 other;
  feq "fb" 2.0 (Span.self_s sp Layers.fb_af);
  feq "rx" 3.0 (Span.self_s sp Layers.rx_af);
  feq "inject" 5.0 (Span.self_s sp Layers.inject);
  feq "take" 2.0 (Span.self_s sp Layers.trunk_take);
  feq "sum" total
    (Array.fold_left ( +. ) 0.0 sp.Span.self_s +. other)

(* A clock that the readings themselves advance, as a real one does: a
   clock reading costs [c1] before its sample and [c2] after it, a word
   reading costs [cw] and allocates [ww] words after its sample.  Work
   between readings advances time by the amount given.  After
   calibration every span is charged exactly its body's time and words,
   and self times, reading overhead and the work outside every span sum
   to the elapsed time. *)
let readings_cost_time () =
  let c1 = 0.25 and c2 = 0.5 and cw = 2.0 and ww = 7.0 in
  let now = ref 0.0 and allocated = ref 0.0 in
  let clock () =
    now := !now +. c1;
    let v = !now in
    now := !now +. c2;
    v
  in
  let words () =
    now := !now +. cw;
    let v = !allocated in
    allocated := !allocated +. ww;
    v
  in
  let work dt w =
    now := !now +. dt;
    allocated := !allocated +. w
  in
  let sp = Span.make ~clock ~words Layers.names in
  Span.calibrate ~batch:10 sp;
  let start = !now in
  work 3.0 0.0;
  (* a receive callback that sends feedback, then a trunk pull *)
  Span.enter sp Layers.rx_af;
  work 10.0 100.0;
  Span.enter sp Layers.inject;
  work 4.0 40.0;
  Span.leave sp;
  work 1.0 1.0;
  Span.leave sp;
  work 5.0 0.0;
  Span.enter sp Layers.trunk_take;
  work 2.0 20.0;
  Span.leave sp;
  work 1.0 0.0;
  let total = !now -. start in
  feq "receive self time" 11.0 (Span.self_s sp Layers.rx_af);
  feq "injection self time" 4.0 (Span.self_s sp Layers.inject);
  feq "take self time" 2.0 (Span.self_s sp Layers.trunk_take);
  feq "receive self words" 101.0 (Span.self_w sp Layers.rx_af);
  feq "injection self words" 40.0 (Span.self_w sp Layers.inject);
  feq "take self words" 20.0 (Span.self_w sp Layers.trunk_take);
  let outside = total -. Span.total_self sp -. Span.overhead_s sp in
  feq "outside every span" 9.0 outside;
  (* three spans, each costing two clock and two word readings *)
  feq "reading overhead" (3.0 *. (2.0 *. (c1 +. c2) +. (2.0 *. cw)))
    (Span.overhead_s sp)

(* With the real counters, calibration makes self words exact: each
   span is charged exactly what its own body allocated. *)
let real_counters_exact () =
  let sp = Span.create Layers.names in
  Span.enter sp Layers.rx_af;
  ignore (Sys.opaque_identity (List.init 1_000 Fun.id));
  Span.enter sp Layers.inject;
  ignore (Sys.opaque_identity (Array.make 1_000 0));
  Span.leave sp;
  ignore (Sys.opaque_identity (List.init 10 Fun.id));
  Span.leave sp;
  feq "outer: 1,010 cells" 3_030.0 (Span.self_w sp Layers.rx_af);
  feq "inner: one 1,000-word array" 1_001.0 (Span.self_w sp Layers.inject)

let wrap_charges_callback () =
  let sp = Span.create Layers.names in
  let cb = Span.wrap sp Layers.tcp_rx (fun n -> ignore (Sys.opaque_identity (List.init n Fun.id))) in
  cb 100;
  cb 100;
  Alcotest.(check int) "calls" 2 (Span.calls sp Layers.tcp_rx);
  feq "words" 600.0 (Span.self_w sp Layers.tcp_rx)

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let percentile_rule () =
  let pick n = Pct.highest_supported ~n [ 50.0; 90.0; 95.0; 99.0 ] in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "300 samples: p95" (Some 95.0) (pick 300);
  Alcotest.check opt "200 samples: p95 has exactly ten beyond" (Some 95.0) (pick 200);
  Alcotest.check opt "199 samples: p90" (Some 90.0) (pick 199);
  Alcotest.check opt "1,000 samples: p99" (Some 99.0) (pick 1000);
  Alcotest.check opt "19 samples: nothing" None (pick 19);
  Alcotest.(check int) "beyond p95 of 200" 10 (Pct.beyond ~n:200 95.0)

let percentile_values () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  feq "p50 nearest rank" 50.0 (Pct.percentile a 50.0);
  feq "p95 nearest rank" 95.0 (Pct.percentile a 95.0);
  feq "p100" 100.0 (Pct.percentile a 100.0)

(* ------------------------------------------------------------------ *)
(* Replay *)

let replay_pops_equal_events () =
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed:7 ~n_flows:4 ~bottleneck_mbps:4.0
      ~committed_mbps:[| 1.0; 0.0; 1.0; 0.0 |] ()
  in
  let r = Replay.create () in
  Replay.attach r sim;
  for i = 0 to 3 do
    let initiator =
      if i mod 2 = 0 then Qtp.Profile.qtp_af ~g_bps:1e6 () else Qtp.Profile.qtp_light ()
    in
    ignore
      (Qtp.Connection.create_negotiated ~sim ~endpoint:(Netsim.Topology.endpoint topo i)
         ~start_at:(0.1 *. float_of_int i) ~initiator
         ~responder:(Qtp.Profile.anything ()) ())
  done;
  Engine.Sim.run ~until:3.0 sim;
  Replay.detach sim;
  let events = Engine.Sim.executed sim in
  Alcotest.(check bool) "ran something" true (events > 1000);
  Alcotest.(check bool) "some cancels" true (r.Replay.cancels > 0);
  Alcotest.(check int) "recorded pops" events r.Replay.pops;
  let popped, _ = Replay.replay r in
  Alcotest.(check int) "replayed pops" events popped;
  Alcotest.(check int) "op count" (r.Replay.schedules + r.Replay.cancels + r.Replay.pops)
    (Replay.length r)

let () =
  Alcotest.run "perfbench"
    [
      ( "alloc",
        [
          Alcotest.test_case "list cells" `Quick list_words;
          Alcotest.test_case "direct major" `Quick major_words;
          Alcotest.test_case "nothing" `Quick nothing_costs_nothing;
        ] );
      ( "span",
        [
          Alcotest.test_case "nested injection" `Quick nested_injection;
          Alcotest.test_case "self times sum to total" `Quick self_times_sum_to_total;
          Alcotest.test_case "readings cost time" `Quick readings_cost_time;
          Alcotest.test_case "real counters exact" `Quick real_counters_exact;
          Alcotest.test_case "wrap" `Quick wrap_charges_callback;
        ] );
      ( "pct",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "percentile values" `Quick percentile_values;
        ] );
      ("replay", [ Alcotest.test_case "pops equal events" `Quick replay_pops_equal_events ]);
    ]
