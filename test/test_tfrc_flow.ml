(* Tfrc.Sender + Tfrc.Receiver wired directly (no network): slow start,
   feedback reaction, nofeedback timer, gTFRC floor, idle/wake. *)

let make_pair ?(min_rate_bps = 0.0) ?(loss_every = 0) sim =
  (* Direct wiring with a constant one-way delay of 10 ms each way. *)
  let owd = 0.01 in
  let params =
    {
      Tfrc.Sender.default_params with
      packet_size = 1000;
      initial_rtt = 0.1;
      min_rate_bps;
      (* Direct wiring has no physical link: cap the rate so lossless
         slow start cannot double into an event flood. *)
      max_rate_bps = Some 1e8;
    }
  in
  let sender_ref = ref None in
  let receiver_ref = ref None in
  let send_feedback (fb : Packet.Header.feedback) =
    ignore
      (Engine.Sim.schedule_after sim owd (fun () ->
           match !sender_ref with
           | Some snd ->
               Tfrc.Sender.on_feedback snd ~tstamp_echo:fb.tstamp_echo
                 ~t_delay:fb.t_delay ~x_recv:fb.x_recv ~p:fb.p
           | None -> ()))
  in
  let receiver = Tfrc.Receiver.create ~sim ~send_feedback () in
  receiver_ref := Some receiver;
  let seq = ref 0 in
  let sent = ref 0 in
  let transmit () =
    incr sent;
    let this = !seq in
    incr seq;
    let lost = loss_every > 0 && this mod loss_every = loss_every - 1 in
    if not lost then begin
      let snd = Option.get !sender_ref in
      let d =
        {
          Packet.Header.seq = Packet.Serial.of_int this;
          tstamp = Engine.Sim.now sim;
          rtt_estimate = Tfrc.Sender.rtt snd;
          is_retransmit = false;
          fwd_point = Packet.Serial.of_int this;
        }
      in
      ignore
        (Engine.Sim.schedule_after sim owd (fun () ->
             Tfrc.Receiver.on_data receiver ~ce:false d ~size:1000))
    end;
    true
  in
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:transmit () in
  sender_ref := Some sender;
  (sender, receiver, sent)

let test_slow_start_doubles () =
  let sim = Engine.Sim.create () in
  let sender, _, _ = make_pair sim in
  let r0 = Tfrc.Sender.rate_bps sender in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:3.0 sim;
  Alcotest.(check bool) "still in slow start (no loss)" true
    (Tfrc.Sender.in_slow_start sender);
  Alcotest.(check bool) "rate grew a lot" true
    (Tfrc.Sender.rate_bps sender > 10.0 *. r0)

let test_loss_leaves_slow_start () =
  let sim = Engine.Sim.create () in
  let sender, receiver, _ = make_pair ~loss_every:50 sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "left slow start" false
    (Tfrc.Sender.in_slow_start sender);
  Alcotest.(check bool) "receiver saw loss events" true
    (Tfrc.Receiver.loss_events receiver > 0);
  (* Equation-governed rate with p ~ 2%: sanity corridor. *)
  let p = Tfrc.Receiver.loss_event_rate receiver in
  Alcotest.(check bool)
    (Printf.sprintf "p %f plausible" p)
    true
    (p > 0.003 && p < 0.08)

let test_rtt_measured () =
  let sim = Engine.Sim.create () in
  let sender, _, _ = make_pair sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:3.0 sim;
  Alcotest.(check bool) "rtt sampled" true (Tfrc.Sender.has_rtt_sample sender);
  (* True RTT is 20 ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "rtt %f ~ 0.02" (Tfrc.Sender.rtt sender))
    true
    (Float.abs (Tfrc.Sender.rtt sender -. 0.02) < 0.01)

let test_nofeedback_halves () =
  let sim = Engine.Sim.create () in
  let params =
    { Tfrc.Sender.default_params with packet_size = 1000; initial_rtt = 0.1 }
  in
  (* Transmit into the void: no receiver, no feedback. *)
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:(fun () -> true) () in
  Tfrc.Sender.start sender;
  let r0 = Tfrc.Sender.rate_bps sender in
  Engine.Sim.run ~until:10.0 sim;
  Alcotest.(check bool) "nofeedback fired" true
    (Tfrc.Sender.nofeedback_expiries sender > 1);
  Alcotest.(check bool) "rate collapsed" true
    (Tfrc.Sender.rate_bps sender < r0)

let test_gtfrc_floor_respected () =
  let sim = Engine.Sim.create () in
  let floor = 2.0e6 in
  let sender, _, _ = make_pair ~min_rate_bps:floor ~loss_every:10 sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:20.0 sim;
  (* Heavy loss (10%) would push TFRC way below 2 Mb/s; gTFRC must not. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate %f >= floor" (Tfrc.Sender.rate_bps sender))
    true
    (Tfrc.Sender.rate_bps sender >= floor -. 1.0)

let test_no_floor_collapses () =
  let sim = Engine.Sim.create () in
  let sender, _, _ = make_pair ~loss_every:10 sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "pure TFRC sinks below 2 Mb/s at 10% loss" true
    (Tfrc.Sender.rate_bps sender < 2.0e6)

let test_idle_and_wake () =
  let sim = Engine.Sim.create () in
  let available = ref true in
  let sent = ref 0 in
  let params =
    { Tfrc.Sender.default_params with packet_size = 1000; initial_rtt = 0.1 }
  in
  let sender =
    Tfrc.Sender.create ~sim params
      ~on_transmit:(fun () ->
        if !available then begin
          incr sent;
          true
        end
        else false)
      ()
  in
  Tfrc.Sender.start sender;
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> available := false));
  ignore
    (Engine.Sim.schedule_at sim 5.0 (fun () ->
         available := true;
         Tfrc.Sender.notify_data sender));
  Engine.Sim.run ~until:6.0 sim;
  let sent_at_1 = !sent in
  ignore sent_at_1;
  Alcotest.(check bool) "kept sending after wake" true (!sent > 0);
  (* Verify nothing was sent while idle: count between t=1.2 and t=5. *)
  let sim2 = Engine.Sim.create () in
  let sent2 = ref 0 in
  let avail2 = ref true in
  let sender2 =
    Tfrc.Sender.create ~sim:sim2 params
      ~on_transmit:(fun () ->
        if !avail2 then begin
          incr sent2;
          true
        end
        else false)
      ()
  in
  Tfrc.Sender.start sender2;
  ignore (Engine.Sim.schedule_at sim2 1.0 (fun () -> avail2 := false));
  Engine.Sim.run ~until:1.5 sim2;
  let mark = !sent2 in
  Engine.Sim.run ~until:5.0 sim2;
  Alcotest.(check int) "idle means silent" mark !sent2

let test_stop () =
  let sim = Engine.Sim.create () in
  let sender, _, sent = make_pair sim in
  Tfrc.Sender.start sender;
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> Tfrc.Sender.stop sender));
  Engine.Sim.run ~until:2.0 sim;
  let at_stop = !sent in
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check int) "no sends after stop" at_stop !sent

(* Allocation, measured from this library (across the dev profile's
   [-opaque] boundary); arguments are boxed once, outside the measured
   loops, as a caller's already are. *)
let words_per_call n f =
  for _ = 1 to 10 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_receiver_in_order_words () =
  let sim = Engine.Sim.create () in
  let rcv = Tfrc.Receiver.create ~sim ~send_feedback:(fun _ -> ()) () in
  let n = 1000 in
  let hdrs =
    Array.init (n + 10) (fun i ->
        {
          Packet.Header.seq = Packet.Serial.of_int i;
          tstamp = 0.0;
          rtt_estimate = 0.1;
          is_retransmit = false;
          fwd_point = Packet.Serial.of_int i;
        })
  in
  let i = ref 0 in
  let words =
    words_per_call n (fun () ->
        Tfrc.Receiver.on_data rcv ~ce:false hdrs.(!i) ~size:1000;
        incr i)
  in
  Alcotest.(check int) "no loss event" 0 (Tfrc.Receiver.loss_events rcv);
  Alcotest.(check (float 0.0)) "words per in-order on_data" 0.0 words

(* A feedback allocates only where a computed float crosses into
   another module: the nofeedback timer's delay and its event's time
   (4 words), and at p > 0 also the equation's argument and result. *)
let test_sender_feedback_words () =
  let words_at p =
    let sim = Engine.Sim.create () in
    let params =
      { Tfrc.Sender.default_params with packet_size = 1000; initial_rtt = 0.1 }
    in
    let snd =
      Tfrc.Sender.create ~sim params ~on_transmit:(fun () -> true) ()
    in
    Tfrc.Sender.start snd;
    Engine.Sim.run ~until:1.0 sim;
    let tstamp_echo = Sys.opaque_identity 0.9
    and t_delay = Sys.opaque_identity 0.001
    and x_recv = Sys.opaque_identity 1e5
    and p = Sys.opaque_identity p in
    let words =
      words_per_call 1000 (fun () ->
          Tfrc.Sender.on_feedback snd ~tstamp_echo ~t_delay ~x_recv ~p)
    in
    Alcotest.(check int) "feedbacks" 1010
      (Tfrc.Sender.feedbacks_processed snd);
    words
  in
  Alcotest.(check (float 0.0)) "words per on_feedback at p > 0" 8.0
    (words_at 0.01);
  Alcotest.(check (float 0.0)) "words per on_feedback at p = 0" 4.0
    (words_at 0.0)

let test_sender_create_rejects () =
  let sim = Engine.Sim.create () in
  let create p =
    ignore (Tfrc.Sender.create ~sim p ~on_transmit:(fun () -> true) ())
  in
  let d = Tfrc.Sender.default_params in
  let msg what = Invalid_argument ("Tfrc.Sender.create: " ^ what) in
  Alcotest.check_raises "packet_size 0" (msg "packet_size must be > 0")
    (fun () -> create { d with packet_size = 0 });
  Alcotest.check_raises "packet_size < 0" (msg "packet_size must be > 0")
    (fun () -> create { d with packet_size = -1500 });
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "initial_rtt %g" v)
        (msg "initial_rtt must be > 0")
        (fun () -> create { d with initial_rtt = v });
      Alcotest.check_raises
        (Printf.sprintf "t_mbi %g" v)
        (msg "t_mbi must be > 0")
        (fun () -> create { d with t_mbi = v }))
    [ 0.0; -1.0; Float.nan ]

let suite =
  [
    Alcotest.test_case "slow start doubles" `Quick test_slow_start_doubles;
    Alcotest.test_case "loss leaves slow start" `Quick
      test_loss_leaves_slow_start;
    Alcotest.test_case "rtt measured" `Quick test_rtt_measured;
    Alcotest.test_case "nofeedback halves" `Quick test_nofeedback_halves;
    Alcotest.test_case "gTFRC floor" `Quick test_gtfrc_floor_respected;
    Alcotest.test_case "no floor collapses" `Quick test_no_floor_collapses;
    Alcotest.test_case "idle and wake" `Quick test_idle_and_wake;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "receiver in-order words" `Quick
      test_receiver_in_order_words;
    Alcotest.test_case "sender feedback words" `Quick
      test_sender_feedback_words;
    Alcotest.test_case "sender create rejects" `Quick
      test_sender_create_rejects;
  ]
