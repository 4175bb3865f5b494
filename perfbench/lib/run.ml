(* What every workload shares: the instrumentation mode of a child run,
   the sliced run loop, and the key/value lines a child reports.  All
   times are read from [Clock.now], the process's CPU seconds. *)

type mode =
  | Plain  (** nothing attached: the timed run *)
  | Gc  (** a plain run with the runtime's GC event ring on *)
  | Spans of Span.t  (** layer spans around the library's callbacks *)
  | Ops of Replay.t  (** the scheduler op stream, for the replay *)

(* Run [sim] to [horizon] in [slices] equal steps of simulated time,
   storing each step's host seconds.  Stopping between steps runs no
   event and schedules none, so the simulation is the one an unsliced
   run would produce.  [between] runs after every step, outside the
   step's time. *)
let sliced ?(between = ignore) sim ~horizon ~times =
  let slices = Array.length times in
  for k = 1 to slices do
    let t0 = Clock.now () in
    Engine.Sim.run ~until:(horizon *. float_of_int k /. float_of_int slices) sim;
    times.(k - 1) <- Clock.now () -. t0;
    between ()
  done

(* Child -> parent protocol: one "@ key value" line per figure. *)
let emit key value = Printf.printf "@ %s %s\n" key value

let emit_float key v = emit key (Printf.sprintf "%.17g" v)

let emit_int key v = emit key (string_of_int v)

(* Running MD5 over a stream of ints / float bit patterns, for the
   identity checks. *)
module Fp = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let int b i = Buffer.add_int64_le b (Int64.of_int i)
  let float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
  let string b s = Buffer.add_string b s
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b))
end

(* GC time from the runtime's own event ring: total seconds inside
   minor collections and inside major slices.  The ring is bounded, so
   callers poll it often (between simulation steps). *)
module Gc_time = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    open_at : int64 array;  (* [|minor; major|] begin stamps, -1 if closed *)
    total_ns : int64 array;
  }

  let slot = function
    | Runtime_events.EV_MINOR -> 0
    | Runtime_events.EV_MAJOR_SLICE -> 1
    | _ -> -1

  let start () =
    Runtime_events.start ();
    let open_at = [| -1L; -1L |] in
    let total_ns = [| 0L; 0L |] in
    let runtime_begin _ ts phase =
      let i = slot phase in
      if i >= 0 then open_at.(i) <- Runtime_events.Timestamp.to_int64 ts
    in
    let runtime_end _ ts phase =
      let i = slot phase in
      if i >= 0 && open_at.(i) >= 0L then begin
        total_ns.(i) <-
          Int64.add total_ns.(i)
            (Int64.sub (Runtime_events.Timestamp.to_int64 ts) open_at.(i));
        open_at.(i) <- -1L
      end
    in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
      open_at;
      total_ns;
    }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  (* Drain what happened so far and start counting from zero. *)
  let reset t =
    poll t;
    t.total_ns.(0) <- 0L;
    t.total_ns.(1) <- 0L

  let minor_s t = Int64.to_float t.total_ns.(0) /. 1e9
  let major_s t = Int64.to_float t.total_ns.(1) /. 1e9
end

(* Counts of collections, exact (these stats are kept by the runtime). *)
let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* The figures every timed run reports: host seconds inside the run,
   exact words allocated by it, the run's peak heap and the per-unit
   time percentiles ([times] in seconds, one per unit of work). *)
let emit_run ~run_s ~words ~events ~peak times =
  let n = Array.length times in
  emit_float "run_s" run_s;
  emit_float "words" words;
  emit_int "events" events;
  emit_int "peak_heap_words" peak;
  emit_int "scenario_n" n;
  emit_float "scenario_ms_p50" (1000.0 *. Pct.percentile times 50.0);
  emit_float "scenario_ms_p95" (1000.0 *. Pct.percentile times 95.0)

(* What a mode watches around a run.  GC time and collection counts are
   taken only in [Gc] mode, whose run has nothing else attached: in a
   span-traced run every reading allocates, and that garbage would be
   counted as the program's.  Spans report their figures and the time
   outside every span. *)
type probe = {
  gc : (Gc_time.t * int * int) option;
  spans : Span.t option;
}

let probe_begin mode =
  let gc =
    match mode with
    | Gc ->
        let g = Gc_time.start () in
        Gc_time.reset g;
        let minor, major = collections () in
        Some (g, minor, major)
    | Plain | Spans _ | Ops _ -> None
  in
  { gc; spans = (match mode with Spans sp -> Some sp | _ -> None) }

(* Drain the GC event ring; call it often, it is bounded. *)
let probe_poll p = Option.iter (fun (g, _, _) -> Gc_time.poll g) p.gc

let probe_end p ~run_s =
  Option.iter
    (fun (g, minor, major) ->
      Gc_time.poll g;
      let minor1, major1 = collections () in
      emit_float "gc.minor_s" (Gc_time.minor_s g);
      emit_float "gc.major_s" (Gc_time.major_s g);
      emit_int "gc.minor_collections" (minor1 - minor);
      emit_int "gc.major_collections" (major1 - major))
    p.gc;
  Option.iter
    (fun sp ->
      Array.iteri
        (fun i name ->
          emit_int ("span." ^ name ^ ".calls") (Span.calls sp i);
          emit_float ("span." ^ name ^ ".self_s") (Span.self_s sp i);
          emit_float ("span." ^ name ^ ".words") (Span.self_w sp i))
        sp.Span.names;
      emit_float "engine.other_self_s"
        (run_s -. Span.total_self sp -. Span.overhead_s sp))
    p.spans

(* Time one simulation to [horizon] in [slices] steps under [mode]. *)
let measure_sim ~mode sim ~horizon ~slices =
  let p = probe_begin mode in
  let times = Array.make slices 0.0 in
  let w0 = Alloc.read () in
  sliced ~between:(fun () -> probe_poll p) sim ~horizon ~times;
  let w1 = Alloc.read () in
  let peak = Alloc.peak_heap_words () in
  let run_s = Array.fold_left ( +. ) 0.0 times in
  emit_run ~run_s ~words:(w1 -. w0 -. Alloc.read_cost)
    ~events:(Engine.Sim.executed sim) ~peak times;
  probe_end p ~run_s

(* Scheduler counts and the bare-Sim replay of a recorded op stream. *)
let emit_ops sim r =
  Replay.detach sim;
  emit_int "engine.schedules" r.Replay.schedules;
  emit_int "engine.cancels" r.Replay.cancels;
  emit_int "engine.pending_peak" r.Replay.pending_peak;
  let pops, dt = Replay.replay r in
  emit_int "engine.replay_pops" pops;
  emit_float "engine.replay_s" dt
