(* Span names, one per layer boundary the benchmark can wrap from
   outside, and the wrappers that charge library callbacks to them. *)

let names =
  [|
    "netsim.inject";
    "core.rx.af";
    "core.rx.light";
    "core.fb.af";
    "core.fb.light";
    "tcp.rx";
    "tcp.fb";
    "trunk.take";
    "fuzz.run.std";
    "fuzz.run.lfn";
    "fuzz.run.handover";
    "fuzz.run.trunk";
    "trace.export";
  |]

let id name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Layers.id: " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let inject = id "netsim.inject"
let rx_af = id "core.rx.af"
let rx_light = id "core.rx.light"
let fb_af = id "core.fb.af"
let fb_light = id "core.fb.light"
let tcp_rx = id "tcp.rx"
let tcp_fb = id "tcp.fb"
let trunk_take = id "trunk.take"
let trace_export = id "trace.export"

let fuzz_run = function
  | `Std -> id "fuzz.run.std"
  | `Lfn -> id "fuzz.run.lfn"
  | `Handover -> id "fuzz.run.handover"
  | `Trunk -> id "fuzz.run.trunk"

(* Both injections are charged to netsim; the receive hooks to the
   layer that consumes them.  A hook that injects (a receiver sending
   feedback) nests an injection span, which is charged to netsim. *)
let endpoint sp ~rx ~fb (ep : Netsim.Topology.endpoint) =
  {
    ep with
    Netsim.Topology.to_receiver = Span.wrap sp inject ep.Netsim.Topology.to_receiver;
    to_sender = Span.wrap sp inject ep.Netsim.Topology.to_sender;
    on_receiver_rx = (fun cb -> ep.Netsim.Topology.on_receiver_rx (Span.wrap sp rx cb));
    on_sender_rx = (fun cb -> ep.Netsim.Topology.on_sender_rx (Span.wrap sp fb cb));
  }

(* A pull source forwarding to [inner] under the trunk.take span; the
   inner source's wake-ups are forwarded to whoever owns the outer. *)
let source sp inner =
  let outer =
    Qtp.Source.pull ~take:(Span.wrap sp trunk_take (fun () -> Qtp.Source.take inner)) ()
  in
  Qtp.Source.set_notify inner (fun () -> Qtp.Source.wake outer);
  outer
