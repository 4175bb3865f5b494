(* checked_soak: a fixed block of fuzz scenarios, each run through the
   full executor (live invariant checker and oracles) under the flight
   recorder, with the canonical trace digest taken — the cost of a
   golden check or of a fuzz campaign.

   Hundreds of short simulations with faults and handovers: creation
   and teardown, the mangler, mobility, the analysis checker and the
   trace recorder dominate, all of which media_crowd and trunk_lfn
   bypass.  It is also the only workload whose failures are oracle
   verdicts.

   The block is fixed: fuzz seeds 1..50 in each of the four bands, 200
   scenarios in band-interleaved order, the same whatever the benchmark
   seed.  Per-scenario cost is heavy-tailed (a few trunk and LFN
   scenarios cost ten times the median one): blocks of 240 scenarios
   drawn from six benchmark seeds varied by 17% in run_s and by 40% in
   peak heap, and merely shuffling the fixed block still moved the peak
   heap by 16% (it depends on which scenarios' garbage is still live
   when the largest one runs) — more than any bound could absorb.

   The executor owns its simulation, so the engine's event count is not
   visible from outside; the per-event denominator here is the number
   of events the flight recorder logged (trace.events). *)

let bands = [| `Std; `Lfn; `Handover; `Trunk |]
let per_band = 50
let setup_repeats = 20

type input = { seeds : ([ `Std | `Lfn | `Handover | `Trunk ] * int) array }

let generate ~seed:_ =
  let nb = Array.length bands in
  { seeds = Array.init (per_band * nb) (fun i -> (bands.(i mod nb), 1 + (i / nb))) }

let scenarios (inp : input) =
  Array.map (fun (band, seed) -> Fuzz.Scenario.generate_in ~band ~seed) inp.seeds

(* How a soak child runs: with the recorder (the measured workload) or
   without it (the baseline for trace.words_per_event). *)
type soak_mode = Recorded of Run.mode | Unrecorded

let child ~mode ~seed =
  let inp = generate ~seed in
  let setup_times = Array.make setup_repeats 0.0 in
  let scs = ref [||] in
  for k = 0 to setup_repeats - 1 do
    let t0 = Clock.now () in
    scs := scenarios inp;
    setup_times.(k) <- Clock.now () -. t0
  done;
  let scs = !scs in
  Run.emit_float "setup_s" (Stats.Summary.percentile setup_times 0.5);
  let n = Array.length scs in
  let probe =
    Run.probe_begin (match mode with Recorded m -> m | Unrecorded -> Run.Plain)
  in
  let sp = probe.Run.spans in
  let times = Array.make n 0.0 in
  let exec_words = ref 0.0 in
  let export_words = ref 0.0 in
  let trace_events = ref 0 in
  let reports = Array.make n None in
  let traces = Array.make n "" in
  let enter id = match sp with Some sp -> Span.enter sp id | None -> () in
  let leave () = match sp with Some sp -> Span.leave sp | None -> () in
  for i = 0 to n - 1 do
    let band, _ = inp.seeds.(i) in
    let sc = scs.(i) in
    let t0 = Clock.now () in
    let w0 = Alloc.read () in
    enter (Layers.fuzz_run band);
    let report, recorder =
      match mode with
      | Unrecorded -> (Fuzz.Exec.run sc, None)
      | Recorded _ ->
          let r, rc = Trace.Recorder.with_recorder (fun () -> Fuzz.Exec.run sc) in
          (r, Some rc)
    in
    leave ();
    let w1 = Alloc.read () in
    exec_words := !exec_words +. (w1 -. w0 -. Alloc.read_cost);
    (match recorder with
    | Some rc ->
        trace_events := !trace_events + Trace.Recorder.events rc;
        enter Layers.trace_export;
        traces.(i) <- Trace.Export.digest rc;
        leave ();
        let w2 = Alloc.read () in
        export_words := !export_words +. (w2 -. w1 -. Alloc.read_cost)
    | None -> ());
    times.(i) <- Clock.now () -. t0;
    reports.(i) <- Some report;
    Run.probe_poll probe
  done;
  let peak = Alloc.peak_heap_words () in
  let run_s = Array.fold_left ( +. ) 0.0 times in
  let words = !exec_words +. !export_words in
  Run.emit_run ~run_s ~words ~events:!trace_events ~peak times;
  Run.emit_float "exec_words" !exec_words;
  Run.probe_end probe ~run_s;
  let reports = Array.map Option.get reports in
  let fp_reports = Run.Fp.create () in
  let fp_traces = Run.Fp.create () in
  let failed = ref 0 in
  let checker = ref 0 and mangled = ref 0 and retx = ref 0 in
  Array.iteri
    (fun i (r : Fuzz.Exec.report) ->
      Run.Fp.string fp_reports (Fuzz.Driver.digest r);
      Run.Fp.string fp_traces traces.(i);
      if not (Fuzz.Exec.passed r) then incr failed;
      checker := !checker + r.Fuzz.Exec.checker_events;
      let m = r.Fuzz.Exec.mangled in
      mangled :=
        !mangled + m.Netsim.Mangler.reordered + m.Netsim.Mangler.duplicated
        + m.Netsim.Mangler.corrupted;
      List.iter (fun (f : Fuzz.Exec.flow_stats) -> retx := !retx + f.Fuzz.Exec.retx)
        r.Fuzz.Exec.flows)
    reports;
  Run.emit_int "attempted" n;
  Run.emit_int "failed" !failed;
  Run.emit "id.reports" (Run.Fp.digest fp_reports);
  (match mode with
  | Recorded _ ->
      Run.emit_int "id.trace_events" !trace_events;
      Run.emit "id.traces" (Run.Fp.digest fp_traces)
  | Unrecorded -> ());
  Run.emit_int "analysis.checker_events" !checker;
  Run.emit_int "netsim.mangled" !mangled;
  Run.emit_int "core.retransmissions" !retx
