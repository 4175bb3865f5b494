(* Trunk.Mux: the conservation battery.  Every admitted user byte must
   come back exactly once, byte-identical, in order — checked two ways:
   independently against the feed's closed-form pattern on a clean
   link, and through the digest oracle across mangled (reordering /
   duplicating / corrupting) fuzz scenarios. *)

module M = Trunk.Mux
module S = Fuzz.Scenario
module E = Fuzz.Exec

let duration = 3.0

let drain = 20.0

(* One trunked QTP_AF connection over a clean dumbbell; the per-user
   delivery callback replays the feed's pattern formula against every
   delivered byte at the user's running stream offset — an oracle that
   shares nothing with the mux's internal digests. *)
let run_clean ?(audit = true) ?weights ?chunk ?period ~discipline ~users
    ~per_user () =
  let seed = 9 in
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed ~n_flows:1 ~bottleneck_mbps:10.0
      ~committed_mbps:[| 5.0 |] ()
  in
  let mux =
    M.create ?weights (M.config ~discipline ~audit ~users ())
  in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_af ~g_bps:5e6 ())
      (Qtp.Profile.anything ())
  in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~source:(M.source mux)
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  M.attach mux ~conn ~seg_payload:(1500 - Packet.Header.data_header_bytes);
  let offsets = Array.make users 0 in
  let pattern_errors = ref 0 in
  let feed_seed = 0 in
  M.set_on_data mux (fun ~user ~buf ~pos ~len ->
      for i = 0 to len - 1 do
        let o = offsets.(user) + i in
        let want = (feed_seed + (user * 131) + (o * 31)) land 0xff in
        if Char.code (Bytes.get buf (pos + i)) <> want then
          incr pattern_errors
      done;
      offsets.(user) <- offsets.(user) + len);
  ignore
    (M.feed mux ~sim ~seed:feed_seed ?chunk ?period
       ~workloads:(Array.make users per_user)
       ~stop_at:duration ());
  Engine.Sim.run ~until:duration sim;
  Qtp.Connection.close conn;
  Engine.Sim.run ~until:(duration +. drain) sim;
  (mux, !pattern_errors)

let check_clean ~label ?audit ?weights ?chunk ?period ~discipline ~users
    ~per_user () =
  let mux, pattern_errors =
    run_clean ?audit ?weights ?chunk ?period ~discipline ~users ~per_user ()
  in
  Alcotest.(check int) (label ^ ": pattern mismatches") 0 pattern_errors;
  Alcotest.(check int) (label ^ ": junk bytes") 0 (M.junk_bytes mux);
  (match M.check_conservation mux with
  | Ok () -> ()
  | Error what -> Alcotest.failf "%s: conservation: %s" label what);
  for u = 0 to users - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: user %d delivered = shipped" label u)
      (M.shipped_bytes mux ~user:u)
      (M.delivered_bytes mux ~user:u);
    if M.backlog_user mux ~user:u = 0 then
      Alcotest.(check int)
        (Printf.sprintf "%s: user %d shipped everything admitted" label u)
        (M.admitted_bytes mux ~user:u)
        (M.shipped_bytes mux ~user:u)
  done;
  mux

let test_clean_drr () =
  ignore
    (check_clean ~label:"drr" ~discipline:Trunk.Sched.Drr ~users:8
       ~per_user:40_000 ())

let test_clean_fifo () =
  ignore
    (check_clean ~label:"fifo" ~discipline:Trunk.Sched.Fifo ~users:8
       ~per_user:40_000 ())

let test_clean_unaudited () =
  (* The bench configuration: digests off, byte counts still exact —
     and the external pattern oracle still covers byte identity. *)
  ignore
    (check_clean ~label:"unaudited" ~audit:false ~discipline:Trunk.Sched.Drr
       ~users:8 ~per_user:40_000 ())

let test_weighted_shares () =
  (* Every user continuously backlogged (workloads far exceed what g
     can carry in [duration]); weighted DRR must hand out deliveries
     close to the 4:1 weight ratio. *)
  let weights = [| 4; 1; 1; 1 |] in
  (* Admission must outpace each user's trunk share or no backlog ever
     forms and DRR degenerates to serve-on-arrival: 16 KiB every 5 ms
     offers ~3 MB/s per user against a ~160 KB/s fair share. *)
  let mux =
    check_clean ~label:"weighted" ~weights ~chunk:16384 ~period:0.005
      ~discipline:Trunk.Sched.Drr ~users:4 ~per_user:2_000_000 ()
  in
  let d u = float_of_int (M.delivered_bytes mux ~user:u) in
  let others = (d 1 +. d 2 +. d 3) /. 3.0 in
  let ratio = d 0 /. others in
  Alcotest.(check bool)
    (Printf.sprintf "weight-4 user gets ~4x (got %.2fx)" ratio)
    true
    (ratio > 3.2 && ratio < 4.8)

(* --- conservation through mangled links --------------------------- *)

let test_mangled_conservation () =
  (* Walk the trunk fuzz band until a handful of scenarios with active
     manglers have run: each must pass every oracle (the exec already
     compares per-user digests at all three stations), parse zero junk,
     and deliver exactly what it shipped; across the set, reordering /
     duplication / corruption must actually have fired. *)
  let faults = ref 0 and exercised = ref 0 and seed = ref 501 in
  while !faults < 4 && !seed < 601 do
    let sc = S.generate_in ~band:`Trunk ~seed:!seed in
    if Netsim.Mangler.is_active sc.S.mangle then begin
      incr faults;
      let r = E.run sc in
      if not (E.passed r) then
        Alcotest.failf "trunk seed %d failed:@\n%a" !seed E.pp_report r;
      let m = r.E.mangled in
      exercised :=
        !exercised + m.Netsim.Mangler.reordered + m.Netsim.Mangler.duplicated
        + m.Netsim.Mangler.corrupted;
      match r.E.trunk with
      | None -> Alcotest.failf "trunk seed %d: no trunk stats" !seed
      | Some tk ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: junk" !seed)
            0 tk.E.tk_junk;
          Alcotest.(check int)
            (Printf.sprintf "seed %d: delivered = shipped" !seed)
            tk.E.tk_shipped tk.E.tk_delivered
    end;
    incr seed
  done;
  Alcotest.(check int) "found 4 mangled trunk scenarios" 4 !faults;
  Alcotest.(check bool)
    (Printf.sprintf "manglers actually fired (%d events)" !exercised)
    true (!exercised > 0)

(* A warmed pack -> deliver round trip allocates nothing: the segment
   buffer comes back to the free list on delivery and the scheduler and
   parser callbacks are built once.  The connection only supplies the
   segment budget; the test packs through the source and delivers each
   sequence itself, with auditing on. *)
let test_round_trip_zero_alloc () =
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed:1 ~n_flows:1 ~bottleneck_mbps:10.0
      ~committed_mbps:[| 5.0 |] ()
  in
  let users = 8 in
  let mux = M.create (M.config ~discipline:Trunk.Sched.Drr ~users ()) in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_af ~g_bps:5e6 ())
      (Qtp.Profile.anything ())
  in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~source:(M.source mux) (Qtp.Connection.config agreed)
  in
  M.attach mux ~conn ~seg_payload:(1500 - Packet.Header.data_header_bytes);
  let got = Array.make 1 0 in
  M.set_on_data mux (fun ~user:_ ~buf:_ ~pos:_ ~len ->
      got.(0) <- got.(0) + len);
  let chunk = Bytes.make 65536 'u' in
  for u = 0 to users - 1 do
    ignore (M.admit mux ~user:u ~src:chunk ~pos:0 ~len:65536)
  done;
  let src = M.source mux in
  let next = Array.make 1 0 in
  let spin n =
    for _ = 1 to n do
      if Qtp.Source.take src then begin
        M.deliver mux ~seq:(Packet.Serial.of_int next.(0));
        next.(0) <- next.(0) + 1
      end
    done
  in
  spin 10 (* warm-up: the first buffer and any one-time growth *);
  let segs = 200 in
  let before = Gc.minor_words () in
  spin segs;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every take packed a segment" (10 + segs) next.(0);
  Alcotest.(check (float 0.0)) "words per round trip" 0.0
    (words /. float_of_int segs);
  Alcotest.(check int) "delivered = shipped" got.(0)
    (Array.fold_left ( + ) 0
       (Array.init users (fun u -> M.shipped_bytes mux ~user:u)));
  match M.check_conservation mux with
  | Ok () -> ()
  | Error what -> Alcotest.failf "conservation: %s" what

let suite =
  [
    Alcotest.test_case "clean link: DRR delivers the pattern" `Quick
      test_clean_drr;
    Alcotest.test_case "clean link: FIFO delivers the pattern" `Quick
      test_clean_fifo;
    Alcotest.test_case "audit off: counts still conserved" `Quick
      test_clean_unaudited;
    Alcotest.test_case "weighted DRR shares" `Quick test_weighted_shares;
    Alcotest.test_case "pack/deliver round trip allocates nothing" `Quick
      test_round_trip_zero_alloc;
    Alcotest.test_case "mangled links conserve every byte" `Slow
      test_mangled_conservation;
  ]
