(* media_crowd: ten thousand connections on one RIO/AF dumbbell.

   Open-loop CBR media on QTP_AF (reservation below the media rate) and
   on QTP_light, each negotiated in-band, plus a share of TCP bulk
   transfers; starts are staggered over the first simulated second.
   Each flow does little work while the timers and per-flow state are
   many, so the engine (wheel, timer re-arms, slab arenas), connection
   set-up and memory dominate, and SACK windows stay a few packets. *)

let n_af = 4_975
let n_light = 4_975
let n_tcp = 50
let n_conns = n_af + n_light + n_tcp
let horizon = 3.0
let slices = 300
let media_packet = 1000

(* Media rates are drawn from a continuous range.  Every CBR source
   accrues credit from time 0, so rates that divide one another (32,
   64, 96 kb/s at 1,000-byte packets) complete packets at the same
   instants and the whole crowd bursts in step every 250 ms. *)
let media_kbps_lo = 32.0
let media_kbps_hi = 96.0

(* Bottleneck capacity beyond the media load, per TCP bulk flow. *)
let tcp_share_bps = 4e6

(* RFC 3390's largest initial window: a bulk flow that loses its
   whole first window waits a 1 s initial RTO, then 2 s more. *)
let tcp_params = { Tcp.Tcp_sender.default_params with initial_window = 4.0 }

type kind = Af | Light | Tcp

type input = {
  seed : int;
  kinds : kind array;
  rate_bps : float array;  (* media rate; 0 for TCP *)
  g_bps : float array;  (* AF reservation; 0 otherwise *)
  start : float array;
  bottleneck_mbps : float;
}

let generate ~seed =
  let rs = Random.State.make [| seed; 0x6d63 |] in
  let kinds =
    Array.init n_conns (fun i ->
        if i < n_af then Af else if i < n_af + n_light then Light else Tcp)
  in
  for i = n_conns - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let k = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- k
  done;
  let rate_bps =
    Array.map
      (function
        | Tcp -> 0.0
        | Af | Light ->
            1e3 *. (media_kbps_lo +. Random.State.float rs (media_kbps_hi -. media_kbps_lo)))
      kinds
  in
  let g_bps =
    Array.mapi
      (fun i k ->
        match k with
        | Af -> rate_bps.(i) *. (0.5 +. Random.State.float rs 0.4)
        | Light | Tcp -> 0.0)
      kinds
  in
  let start = Array.init n_conns (fun _ -> Random.State.float rs 1.0) in
  let media = Array.fold_left ( +. ) 0.0 rate_bps in
  let bottleneck_mbps = (media +. (float_of_int n_tcp *. tcp_share_bps)) /. 1e6 in
  { seed; kinds; rate_bps; g_bps; start; bottleneck_mbps }

type built = {
  sim : Engine.Sim.t;
  topo : Netsim.Topology.t;
  conns : Qtp.Connection.t option array;
  tcps : Tcp.Flow.t option array;
  drops : int ref;
}

let setup ~mode (inp : input) =
  let committed = Array.map (fun g -> g /. 1e6) inp.g_bps in
  let sim, topo =
    (* A deep queue (RIO thresholds scale with it) absorbs the start-up
       bursts of ten thousand senders. *)
    Experiments.Common.af_dumbbell ~seed:inp.seed ~capacity_pkts:10_000 ~n_flows:n_conns
      ~bottleneck_mbps:inp.bottleneck_mbps ~committed_mbps:committed ()
  in
  let drops = ref 0 in
  (match mode with
  | Run.Ops r -> Replay.attach r sim
  | Run.Spans _ ->
      List.iter
        (fun l -> Netsim.Link.on_drop l (fun _ -> incr drops))
        topo.Netsim.Topology.links
  | Run.Plain | Run.Gc -> ());
  let conns = Array.make n_conns None in
  let tcps = Array.make n_conns None in
  let responder = Qtp.Profile.anything () in
  for i = 0 to n_conns - 1 do
    let ep = Netsim.Topology.endpoint topo i in
    let wrap ~rx ~fb =
      match mode with Run.Spans sp -> Layers.endpoint sp ~rx ~fb ep | _ -> ep
    in
    let media initiator ~rx ~fb =
      let source =
        Qtp.Source.cbr ~sim ~rate_bps:inp.rate_bps.(i) ~packet_size:media_packet ()
      in
      (* initial_rtt 0.1 s (the path RTT is about 65 ms): a session
         starting late in the first second still gets four SYN tries
         before the horizon. *)
      conns.(i) <-
        Some
          (Qtp.Connection.create_negotiated ~sim ~endpoint:(wrap ~rx ~fb) ~source
             ~start_at:inp.start.(i) ~packet_size:media_packet ~initial_rtt:0.1
             ~initiator ~responder ())
    in
    match inp.kinds.(i) with
    | Af ->
        media
          (Qtp.Profile.qtp_af ~g_bps:inp.g_bps.(i) ())
          ~rx:Layers.rx_af ~fb:Layers.fb_af
    | Light -> media (Qtp.Profile.qtp_light ()) ~rx:Layers.rx_light ~fb:Layers.fb_light
    | Tcp ->
        tcps.(i) <-
          Some
            (Tcp.Flow.create ~sim
               ~endpoint:(wrap ~rx:Layers.tcp_rx ~fb:Layers.tcp_fb)
               ~params:tcp_params ~start_at:inp.start.(i) ())
  done;
  { sim; topo; conns; tcps; drops }

let delivered_bytes b i =
  match (b.conns.(i), b.tcps.(i)) with
  | Some c, _ -> Stats.Series.total_bytes (Qtp.Connection.goodput c)
  | None, Some f -> Stats.Series.total_bytes (Tcp.Flow.goodput_series f)
  | None, None -> 0

let negotiated c =
  match Qtp.Connection.state c with
  | Qtp.Connection.Established _ | Qtp.Connection.Closing | Qtp.Connection.Closed -> true
  | Qtp.Connection.Negotiating | Qtp.Connection.Failed _ -> false

(* Identity fields, failures and checks of a finished run. *)
let outputs (inp : input) b =
  let fp_bytes = Run.Fp.create () in
  let fp_delay = Run.Fp.create () in
  let failed = ref 0 in
  let total = ref 0 in
  for i = 0 to n_conns - 1 do
    let bytes = delivered_bytes b i in
    Run.Fp.int fp_bytes bytes;
    total := !total + bytes;
    let ok =
      bytes > 0
      && match b.conns.(i) with Some c -> negotiated c | None -> true
    in
    if not ok then incr failed;
    match b.conns.(i) with
    | Some c -> Array.iter (Run.Fp.float fp_delay) (Qtp.Connection.delivery_delays c)
    | None -> ()
  done;
  let capacity_bytes = inp.bottleneck_mbps *. 1e6 *. horizon /. 8.0 in
  let capacity_ok = float_of_int !total <= capacity_bytes in
  Run.emit_int "attempted" n_conns;
  Run.emit_int "failed" !failed;
  Run.emit_int "check.capacity" (if capacity_ok then 1 else 0);
  Run.emit_int "id.events" (Engine.Sim.executed b.sim);
  Run.emit_int "id.delivered_total" !total;
  Run.emit "id.delivered" (Run.Fp.digest fp_bytes);
  Run.emit "id.delays" (Run.Fp.digest fp_delay)

(* Per-layer counters read from the connections after a traced run. *)
let layer_counters b =
  let sum f = Array.fold_left (fun n c -> match c with Some c -> n + f c | None -> n) 0 in
  let data = sum Qtp.Connection.data_sent b.conns in
  let fb = sum Qtp.Connection.feedback_packets b.conns in
  Run.emit_int "core.retransmissions" (sum Qtp.Connection.retransmissions b.conns);
  Run.emit_int "core.handshake_packets" (sum Qtp.Connection.handshake_packets b.conns);
  Run.emit_float "core.feedback_per_data"
    (if data = 0 then 0.0 else float_of_int fb /. float_of_int data);
  let tsum f =
    Array.fold_left
      (fun n t -> match t with Some t -> n + f (Tcp.Flow.sender t) | None -> n)
      0 b.tcps
  in
  Run.emit_int "tcp.retransmits" (tsum Tcp.Tcp_sender.retransmits);
  Run.emit_int "tcp.timeouts" (tsum Tcp.Tcp_sender.timeouts);
  Run.emit_int "netsim.drops" !(b.drops);
  Run.emit_int "netsim.bottleneck_frames"
    (Netsim.Link.stats b.topo.Netsim.Topology.bottleneck).Netsim.Link.tx_frames

let child ~mode ~seed =
  let inp = generate ~seed in
  let t0 = Clock.now () in
  let b = setup ~mode inp in
  Run.emit_float "setup_s" (Clock.now () -. t0);
  Run.measure_sim ~mode b.sim ~horizon ~slices;
  outputs inp b;
  match mode with
  | Run.Spans _ -> layer_counters b
  | Run.Ops r -> Run.emit_ops b.sim r
  | Run.Plain | Run.Gc -> ()
