(* perfbench: the simulator's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   NAME is media_crowd, trunk_lfn or checked_soak (see
   perfbench/README.md).  Inputs are a pure function of the seed
   (checked_soak's block is fixed).

   Every measured run happens in a fresh child process (this executable
   with --child), one at a time, so each run's peak heap is its own and
   no run inherits another's heap or GC state.  With --trace 0 the
   parent repeats plain runs until S seconds have passed (at least
   three) and reports the end-to-end medians.  With --trace 1 it makes
   one plain run, one with GC timing, one with layer spans and one more
   per workload (the scheduler op recording, or the soak without the
   recorder), and reports the per-layer figures.  Every run must reproduce the first
   one's outputs bit for bit.  The last line printed is the JSON
   result. *)

open Perfbench

let workloads = [ "media_crowd"; "trunk_lfn"; "checked_soak" ]

let min_repeats = 3

(* ------------------------------------------------------------------ *)
(* Child side *)

let child ~workload ~mode ~seed =
  let sim_mode = function
    | "plain" -> Run.Plain
    | "gc" -> Run.Gc
    | "spans" -> Run.Spans (Span.create Layers.names)
    | "ops" -> Run.Ops (Replay.create ())
    | m -> failwith ("unknown child mode " ^ m)
  in
  (match workload with
  | "media_crowd" -> Media_crowd.child ~mode:(sim_mode mode) ~seed
  | "trunk_lfn" -> Trunk_lfn.child ~mode:(sim_mode mode) ~seed
  | "checked_soak" ->
      let mode =
        if mode = "unrecorded" then Checked_soak.Unrecorded
        else Checked_soak.Recorded (sim_mode mode)
      in
      Checked_soak.child ~mode ~seed
  | w -> failwith ("unknown workload " ^ w));
  print_string "@ done 1\n"

(* ------------------------------------------------------------------ *)
(* Parent side *)

type figures = (string, string) Hashtbl.t

let runtime_events_dir = "_build/perfbench-events"

(* Run one child to completion and collect its "@ key value" lines. *)
let spawn ~workload ~mode ~seed : figures =
  (try Unix.mkdir "_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir runtime_events_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env =
    Array.append (Unix.environment ())
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ runtime_events_dir |]
  in
  let args =
    [| Sys.executable_name; "--child"; mode; "--workload"; workload; "--seed";
       string_of_int seed |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name args env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let figs = Hashtbl.create 64 in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "@"; k; v ] -> Hashtbl.replace figs k v
       | _ -> print_endline line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 when Hashtbl.mem figs "done" -> ()
  | _ ->
      Printf.eprintf "perfbench: %s child for %s (seed %d) failed\n%!" mode
        workload seed;
      exit 1);
  figs

let get figs k =
  match Hashtbl.find_opt figs k with
  | Some v -> v
  | None -> failwith ("perfbench: child did not report " ^ k)

let num figs k = float_of_string (get figs k)

let num_or figs k d =
  match Hashtbl.find_opt figs k with Some v -> float_of_string v | None -> d

(* Every identity field two runs both report must agree. *)
let identity_mismatches (a : figures) (b : figures) =
  Hashtbl.fold
    (fun k v acc ->
      if String.length k > 3 && String.sub k 0 3 = "id." then
        match Hashtbl.find_opt b k with
        | Some v' when v' <> v -> k :: acc
        | _ -> acc
      else acc)
    a []

(* The run's own checks: every "check.*" figure must be 1. *)
let failed_checks (f : figures) =
  Hashtbl.fold
    (fun k v acc ->
      if String.length k > 6 && String.sub k 0 6 = "check." && v <> "1" then k :: acc
      else acc)
    f []

type metric = { name : string; unit_ : string; value : float }

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let print_table metrics =
  List.iter
    (fun { name; unit_; value } -> Printf.printf "  %-32s %18.6f %s\n" name value unit_)
    metrics

let problems = ref []

let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let check_identity ~what first f =
  List.iter (fun k -> problem "%s differs from the first run in %s" what k)
    (identity_mismatches first f);
  List.iter (fun k -> problem "%s failed %s" what k) (failed_checks f)

let end_to_end ~workload ~seed ~seconds =
  let t_start = Unix.gettimeofday () in
  let rec loop acc =
    let n = List.length acc in
    if n >= min_repeats && Unix.gettimeofday () -. t_start >= seconds then List.rev acc
    else loop (spawn ~workload ~mode:"plain" ~seed :: acc)
  in
  let runs = loop [] in
  let first = List.hd runs in
  List.iteri (fun i f -> check_identity ~what:(Printf.sprintf "repeat %d" i) first f) runs;
  let median f = Stats.Summary.percentile (Array.of_list (List.map f runs)) 0.5 in
  let med k = median (fun f -> num f k) in
  let per_event = median (fun f -> num f "words" /. num f "events") in
  let n_units = int_of_float (num first "scenario_n") in
  (match Pct.highest_supported ~n:n_units [ 50.0; 90.0; 95.0; 99.0 ] with
  | Some p when p >= 95.0 -> ()
  | _ -> problem "%d samples cannot support a p95" n_units);
  let metrics =
    [
      { name = "run_s"; unit_ = "s"; value = med "run_s" };
      { name = "setup_s"; unit_ = "s"; value = med "setup_s" };
      { name = "alloc_words_per_event"; unit_ = "words"; value = per_event };
      { name = "peak_heap_words"; unit_ = "words"; value = med "peak_heap_words" };
      { name = "scenario_ms_p50"; unit_ = "ms"; value = med "scenario_ms_p50" };
      { name = "scenario_ms_p95"; unit_ = "ms"; value = med "scenario_ms_p95" };
    ]
  in
  Printf.printf "perfbench %s seed=%d: %d repeats, %d timed units per repeat\n"
    workload seed (List.length runs) n_units;
  Printf.printf "  run_s per repeat: %s\n"
    (String.concat " " (List.map (fun f -> Printf.sprintf "%.4f" (num f "run_s")) runs));
  print_table metrics;
  (first, metrics)

let per_layer ~workload ~seed =
  let plain = spawn ~workload ~mode:"plain" ~seed in
  check_identity ~what:"the plain run" plain plain;
  let gc = spawn ~workload ~mode:"gc" ~seed in
  check_identity ~what:"the GC-timed run" plain gc;
  let spans = spawn ~workload ~mode:"spans" ~seed in
  check_identity ~what:"the span-traced run" plain spans;
  let soak = workload = "checked_soak" in
  let other =
    spawn ~workload ~mode:(if soak then "unrecorded" else "ops") ~seed
  in
  check_identity
    ~what:(if soak then "the soak without recorder" else "the op-recording run")
    plain other;
  let span_fig name field = num spans (Printf.sprintf "span.%s.%s" name field) in
  let span_metrics name =
    [
      { name = name ^ ".calls"; unit_ = "count"; value = span_fig name "calls" };
      { name = name ^ ".self_s"; unit_ = "s"; value = span_fig name "self_s" };
      { name = name ^ ".words"; unit_ = "words"; value = span_fig name "words" };
    ]
  in
  let c k = num_or spans k 0.0 in
  let g k = num gc k in
  let o k = num_or other k 0.0 in
  let trace_events = num_or plain "id.trace_events" 0.0 in
  if (not soak) && o "engine.replay_pops" <> num plain "events" then
    problem "replay popped %g events, the run executed %g" (o "engine.replay_pops")
      (num plain "events");
  let metrics =
    [
      {
        name = "engine.events";
        unit_ = "count";
        value = (if soak then 0.0 else num plain "events");
      };
      { name = "engine.schedules"; unit_ = "count"; value = o "engine.schedules" };
      { name = "engine.cancels"; unit_ = "count"; value = o "engine.cancels" };
      { name = "engine.pending_peak"; unit_ = "count"; value = o "engine.pending_peak" };
      { name = "engine.replay_s"; unit_ = "s"; value = o "engine.replay_s" };
      { name = "engine.other_self_s"; unit_ = "s"; value = c "engine.other_self_s" };
    ]
    @ span_metrics "netsim.inject"
    @ [
        { name = "netsim.drops"; unit_ = "count"; value = c "netsim.drops" };
        {
          name = "netsim.bottleneck_frames";
          unit_ = "count";
          value = c "netsim.bottleneck_frames";
        };
        { name = "netsim.mangled"; unit_ = "count"; value = c "netsim.mangled" };
      ]
    @ span_metrics "core.rx.af"
    @ span_metrics "core.rx.light"
    @ span_metrics "core.fb.af"
    @ span_metrics "core.fb.light"
    @ [
        {
          name = "core.retransmissions";
          unit_ = "count";
          value = c "core.retransmissions";
        };
        {
          name = "core.handshake_packets";
          unit_ = "count";
          value = c "core.handshake_packets";
        };
        {
          name = "core.feedback_per_data";
          unit_ = "ratio";
          value = c "core.feedback_per_data";
        };
      ]
    @ span_metrics "tcp.rx"
    @ span_metrics "tcp.fb"
    @ [
        { name = "tcp.retransmits"; unit_ = "count"; value = c "tcp.retransmits" };
        { name = "tcp.timeouts"; unit_ = "count"; value = c "tcp.timeouts" };
      ]
    @ span_metrics "trunk.take"
    @ [
        {
          name = "trunk.frames_per_segment";
          unit_ = "ratio";
          value = c "trunk.frames_per_segment";
        };
        { name = "trunk.rejected"; unit_ = "count"; value = c "trunk.rejected" };
        { name = "trace.events"; unit_ = "count"; value = trace_events };
        {
          name = "trace.words_per_event";
          unit_ = "words";
          value =
            (if soak && trace_events > 0.0 then
               (num plain "exec_words" -. o "exec_words") /. trace_events
             else 0.0);
        };
        { name = "trace.export_s"; unit_ = "s"; value = span_fig "trace.export" "self_s" };
        {
          name = "analysis.checker_events";
          unit_ = "count";
          value = c "analysis.checker_events";
        };
      ]
    @ List.map
        (fun band ->
          {
            name = "fuzz.run_s." ^ band;
            unit_ = "s";
            value = span_fig ("fuzz.run." ^ band) "self_s";
          })
        [ "std"; "lfn"; "handover"; "trunk" ]
    @ [
        { name = "gc.minor_s"; unit_ = "s"; value = g "gc.minor_s" };
        { name = "gc.major_s"; unit_ = "s"; value = g "gc.major_s" };
        {
          name = "gc.minor_collections";
          unit_ = "count";
          value = g "gc.minor_collections";
        };
        {
          name = "gc.major_collections";
          unit_ = "count";
          value = g "gc.major_collections";
        };
        {
          name = "spans.overhead_s";
          unit_ = "s";
          value = num spans "run_s" -. num plain "run_s";
        };
      ]
  in
  Printf.printf "perfbench %s seed=%d: per-layer figures (one traced run)\n" workload
    seed;
  print_table metrics;
  (plain, metrics)

let usage () =
  prerr_endline
    "usage: perfbench --workload (media_crowd|trunk_lfn|checked_soak) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and child_mode = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := float_of_string_opt n;
        parse rest
    | "--trace" :: n :: rest ->
        trace := int_of_string_opt n;
        parse rest
    | "--child" :: m :: rest ->
        child_mode := Some m;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let seed = match !seed with Some s -> s | None -> usage () in
  match !child_mode with
  | Some mode -> child ~workload:!workload ~mode ~seed
  | None ->
      let first, metrics =
        match (!trace, !seconds) with
        | Some 0, Some s when s > 0.0 -> end_to_end ~workload:!workload ~seed ~seconds:s
        | Some 1, Some _ -> per_layer ~workload:!workload ~seed
        | _ -> usage ()
      in
      let attempted = int_of_float (num first "attempted") in
      let failed = int_of_float (num first "failed") in
      List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
      print_endline
        (json_result ~correct:(!problems = []) ~attempted ~failed metrics)
