(* trunk_lfn: one gTFRC QTP_AF connection carrying a thousand DRR
   Trunk.Mux users over a long fat path.

   250 ms RTT, 100 Mb/s, a BDP-sized RIO buffer: about two thousand
   packets in flight in one window.  (At 50 Mb/s a feedback cost less
   per call than in media_crowd, whose ten thousand connections miss
   the cache; this workload exists to make feedback processing the
   heavy part, so the path is twice as fast.)  Users are fed until shortly before
   the horizon, then the trunk closes and drains, so conservation can
   be checked.  There are only a handful of timers and almost no
   set-up, so the per-packet work of the one connection dominates:
   core.fb.af (SACK scoreboard, TFRC sender), core.rx.af (TFRC receiver
   loss history), the netsim link rings and trunk pack/demux. *)

let users = 1000
let bottleneck_mbps = 100.0
let one_way_delay = 0.125
let g_mbps = 30.0
let packet_size = 1500

(* Bandwidth-delay product in packets at the bottleneck rate. *)
let bdp_pkts =
  int_of_float
    (Float.ceil
       (bottleneck_mbps *. 1e6 *. 2.0 *. one_way_delay /. float_of_int (packet_size * 8)))

(* Each user's admission queue is small, so the backlog left when the
   feed stops drains within a second or two. *)
let per_user_cap = 8192
let feed_until = 24.0
let close_at = 27.0
let horizon = 30.0
let slices = 300

type input = { seed : int; workloads : int array }

(* Heavy-tailed per-user demand, log-uniform in [16 KiB, 4 MiB]: far
   more in total than the path carries before [feed_until], so the
   trunk stays backlogged while small users finish early. *)
let generate ~seed =
  let rs = Random.State.make [| seed; 0x746c |] in
  let lo = log 16384.0 and hi = log 4194304.0 in
  let workloads =
    Array.init users (fun _ ->
        int_of_float (exp (lo +. Random.State.float rs (hi -. lo))))
  in
  { seed; workloads }

type built = {
  sim : Engine.Sim.t;
  topo : Netsim.Topology.t;
  conn : Qtp.Connection.t;
  mux : Trunk.Mux.t;
  admitted : int array;
  drops : int ref;
}

let setup ~mode (inp : input) =
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed:inp.seed ~capacity_pkts:bdp_pkts ~n_flows:1
      ~bottleneck_mbps ~bottleneck_delay:one_way_delay
      ~committed_mbps:[| g_mbps |] ()
  in
  let drops = ref 0 in
  (match mode with
  | Run.Ops r -> Replay.attach r sim
  | Run.Spans _ ->
      List.iter
        (fun l -> Netsim.Link.on_drop l (fun _ -> incr drops))
        topo.Netsim.Topology.links
  | Run.Plain | Run.Gc -> ());
  let mux =
    Trunk.Mux.create
      (Trunk.Mux.config ~discipline:Trunk.Sched.Drr ~per_user_cap ~audit:false ~users ())
  in
  let ep = Netsim.Topology.endpoint topo 0 in
  let endpoint, source =
    match mode with
    | Run.Spans sp ->
        ( Layers.endpoint sp ~rx:Layers.rx_af ~fb:Layers.fb_af ep,
          Layers.source sp (Trunk.Mux.source mux) )
    | Run.Plain | Run.Gc | Run.Ops _ -> (ep, Trunk.Mux.source mux)
  in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_af ~g_bps:(g_mbps *. 1e6) ())
      (Qtp.Profile.anything ())
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint ~source
      (Qtp.Connection.config ~packet_size ~initial_rtt:0.3 agreed)
  in
  Trunk.Mux.attach mux ~conn ~seg_payload:(packet_size - Packet.Header.data_header_bytes);
  let admitted =
    Trunk.Mux.feed mux ~sim ~workloads:inp.workloads ~seed:inp.seed ~stop_at:feed_until ()
  in
  Engine.Sim.post_at sim close_at (fun () -> Qtp.Connection.close conn);
  { sim; topo; conn; mux; admitted; drops }

let outputs b =
  let fp_bytes = Run.Fp.create () in
  let fp_delay = Run.Fp.create () in
  let failed = ref 0 in
  let total = ref 0 in
  let closed =
    match Qtp.Connection.state b.conn with Qtp.Connection.Closed -> true | _ -> false
  in
  let conserved = closed && Trunk.Mux.check_conservation b.mux = Ok () in
  for u = 0 to users - 1 do
    let d = Trunk.Mux.delivered_bytes b.mux ~user:u in
    Run.Fp.int fp_bytes d;
    total := !total + d;
    let ok =
      conserved && d > 0
      && d = Trunk.Mux.shipped_bytes b.mux ~user:u
      && d = Trunk.Mux.admitted_bytes b.mux ~user:u
      && d = b.admitted.(u)
    in
    if not ok then incr failed
  done;
  Array.iter (Run.Fp.float fp_delay) (Qtp.Connection.delivery_delays b.conn);
  let capacity_bytes = bottleneck_mbps *. 1e6 *. horizon /. 8.0 in
  Run.emit_int "attempted" users;
  Run.emit_int "failed" !failed;
  Run.emit_int "check.capacity"
    (if float_of_int !total <= capacity_bytes then 1 else 0);
  Run.emit_int "check.closed" (if closed then 1 else 0);
  Run.emit_int "check.conservation" (if conserved then 1 else 0);
  Run.emit_int "id.events" (Engine.Sim.executed b.sim);
  Run.emit_int "id.delivered_total" !total;
  Run.emit "id.delivered" (Run.Fp.digest fp_bytes);
  Run.emit "id.delays" (Run.Fp.digest fp_delay)

let layer_counters b =
  let data = Qtp.Connection.data_sent b.conn in
  Run.emit_int "core.retransmissions" (Qtp.Connection.retransmissions b.conn);
  Run.emit_int "core.handshake_packets" (Qtp.Connection.handshake_packets b.conn);
  Run.emit_float "core.feedback_per_data"
    (if data = 0 then 0.0
     else float_of_int (Qtp.Connection.feedback_packets b.conn) /. float_of_int data);
  let segs = Trunk.Mux.segments_packed b.mux in
  Run.emit_float "trunk.frames_per_segment"
    (if segs = 0 then 0.0
     else float_of_int (Trunk.Mux.frames_packed b.mux) /. float_of_int segs);
  Run.emit_int "trunk.rejected" (Trunk.Mux.rejected b.mux);
  Run.emit_int "netsim.drops" !(b.drops);
  Run.emit_int "netsim.bottleneck_frames"
    (Netsim.Link.stats b.topo.Netsim.Topology.bottleneck).Netsim.Link.tx_frames

(* Set-up takes about a millisecond, so a plain run builds it several
   times and reports the median; the last build is the one that runs.
   The other modes build once: a discarded build would leak its
   scheduled events into the op recording. *)
let setup_repeats = 9

let child ~mode ~seed =
  let inp = generate ~seed in
  let repeats = match mode with Run.Plain -> setup_repeats | _ -> 1 in
  let times = Array.make repeats 0.0 in
  let built = ref None in
  for k = 0 to repeats - 1 do
    let t0 = Clock.now () in
    built := Some (setup ~mode inp);
    times.(k) <- Clock.now () -. t0
  done;
  let b = Option.get !built in
  Run.emit_float "setup_s" (Stats.Summary.percentile times 0.5);
  Run.measure_sim ~mode b.sim ~horizon ~slices;
  outputs b;
  match mode with
  | Run.Spans _ -> layer_counters b
  | Run.Ops r -> Run.emit_ops b.sim r
  | Run.Plain | Run.Gc -> ()
