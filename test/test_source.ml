(* Qtp.Source: application source models. *)

let test_greedy () =
  let s = Qtp.Source.greedy () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "always has data" true (Qtp.Source.take s)
  done;
  Alcotest.(check int) "offered counted" 100 (Qtp.Source.offered_packets s)

let test_finite () =
  let s = Qtp.Source.finite ~packets:3 in
  Alcotest.(check bool) "1" true (Qtp.Source.take s);
  Alcotest.(check bool) "2" true (Qtp.Source.take s);
  Alcotest.(check bool) "3" true (Qtp.Source.take s);
  Alcotest.(check bool) "dry" false (Qtp.Source.take s);
  Alcotest.(check int) "offered" 3 (Qtp.Source.offered_packets s)

let test_cbr_paces () =
  let sim = Engine.Sim.create () in
  (* 8 kb/s = 1000 B/s = one 500 B packet per 0.5 s; starts empty... the
     bucket starts with zero credit. *)
  let s = Qtp.Source.cbr ~sim ~rate_bps:8000.0 ~packet_size:500 () in
  Alcotest.(check bool) "empty at t=0" false (Qtp.Source.take s);
  Engine.Sim.run ~until:0.6 sim;
  Alcotest.(check bool) "one packet after 0.6s" true (Qtp.Source.take s);
  Alcotest.(check bool) "but only one" false (Qtp.Source.take s)

let test_cbr_wakes_sender () =
  let sim = Engine.Sim.create () in
  let s = Qtp.Source.cbr ~sim ~rate_bps:8000.0 ~packet_size:500 () in
  let woken = ref false in
  Qtp.Source.set_notify s (fun () -> woken := true);
  Alcotest.(check bool) "nothing yet" false (Qtp.Source.take s);
  Engine.Sim.run ~until:1.0 sim;
  Alcotest.(check bool) "notified when the packet completed" true !woken

let test_cbr_long_run_rate () =
  let sim = Engine.Sim.create () in
  let s = Qtp.Source.cbr ~sim ~rate_bps:1.0e6 ~packet_size:1000 () in
  (* Pull as fast as possible every ms; accepted packets are rate-bound. *)
  let taken = ref 0 in
  let rec poll () =
    if Qtp.Source.take s then incr taken;
    if Engine.Sim.now sim < 10.0 then
      ignore (Engine.Sim.schedule_after sim 0.0005 poll)
  in
  ignore (Engine.Sim.schedule_at sim 0.0 poll);
  Engine.Sim.run ~until:10.0 sim;
  (* 1 Mb/s for 10 s = 1.25 MB = 1250 packets. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d packets ~ 1250" !taken)
    true
    (abs (!taken - 1250) < 30)

let test_queued () =
  let s, push = Qtp.Source.queued () in
  let woken = ref 0 in
  Qtp.Source.set_notify s (fun () -> incr woken);
  Alcotest.(check bool) "empty" false (Qtp.Source.take s);
  push 2;
  Alcotest.(check int) "notified" 1 !woken;
  Alcotest.(check bool) "one" true (Qtp.Source.take s);
  Alcotest.(check bool) "two" true (Qtp.Source.take s);
  Alcotest.(check bool) "drained" false (Qtp.Source.take s);
  push 0;
  Alcotest.(check int) "push 0 is silent" 1 !woken

let test_on_off_produces_bursts () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Sim.split_rng sim in
  let s =
    Qtp.Source.on_off ~sim ~rng ~mean_on:0.5 ~mean_off:0.5 ~rate_bps:1.0e6
      ~packet_size:1000 ()
  in
  let taken = ref 0 in
  let rec poll () =
    if Qtp.Source.take s then incr taken;
    if Engine.Sim.now sim < 20.0 then
      ignore (Engine.Sim.schedule_after sim 0.001 poll)
  in
  ignore (Engine.Sim.schedule_at sim 0.0 poll);
  Engine.Sim.run ~until:20.0 sim;
  (* Duty cycle ~50%: expect roughly 1250 packets over 20 s, well below
     the always-on 2500 and well above zero. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d packets consistent with on/off duty" !taken)
    true
    (!taken > 400 && !taken < 2100)

(* A CBR source paced by its own wake-ups: each wake takes one packet,
   then falls short and re-arms the prebuilt wake thunk.  Credit lives
   unboxed, so the only words are the shortfall's two float boxes: the
   delay handed to [Sim.post_after] and the due time it computes.  The
   heap backend keeps the wheel's one-time bucket growth, as the clock
   reaches fresh slots, out of the count. *)
let test_cbr_take_words () =
  let sim = Engine.Sim.create ~sched:`Heap () in
  let s = Qtp.Source.cbr ~sim ~rate_bps:8000.0 ~packet_size:100 () in
  let taken = ref 0 and asked = ref 0 in
  let rec drain () =
    incr asked;
    if Qtp.Source.take s then begin
      incr taken;
      drain ()
    end
  in
  Qtp.Source.set_notify s drain;
  drain ();
  let steps n =
    for _ = 1 to n do
      ignore (Engine.Sim.step sim : bool)
    done
  in
  steps 100 (* warm-up: the event pool holds a record to reuse *);
  let taken0 = !taken and asked0 = !asked in
  let before = Gc.minor_words () in
  steps 1000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "one packet per wake-up" 1000 (!taken - taken0);
  Alcotest.(check int) "two takes per wake-up" 2000 (!asked - asked0);
  Alcotest.(check (float 0.0)) "words per take" 2.0
    (words /. float_of_int (!asked - asked0))

let suite =
  [
    Alcotest.test_case "greedy" `Quick test_greedy;
    Alcotest.test_case "finite" `Quick test_finite;
    Alcotest.test_case "cbr paces" `Quick test_cbr_paces;
    Alcotest.test_case "cbr wakes" `Quick test_cbr_wakes_sender;
    Alcotest.test_case "cbr long-run rate" `Quick test_cbr_long_run_rate;
    Alcotest.test_case "queued" `Quick test_queued;
    Alcotest.test_case "on/off bursts" `Quick test_on_off_produces_bursts;
    Alcotest.test_case "cbr take words" `Quick test_cbr_take_words;
  ]
