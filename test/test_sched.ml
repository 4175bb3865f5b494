(* Cross-scheduler tests: the wheel and the heap backends of Engine.Sim
   must be observationally identical (pending-count accounting aside).

   - boundary behaviours pinned under each backend;
   - a qcheck differential property replaying random scheduler programs
     under both and comparing the full firing traces byte for byte;
   - a white-box census property over the wheel's internal accounting;
   - a determinism regression: every fuzz smoke-corpus seed must
     produce digest-identical reports under both backends. *)

let scheds = [ ("wheel", `Wheel); ("heap", `Heap) ]

(* ------------------------------------------------------------------ *)
(* Boundary behaviours, one copy per backend. *)

let test_horizon_event_fires sched () =
  let sim = Engine.Sim.create ~sched () in
  let fired = ref false in
  ignore (Engine.Sim.schedule_at sim 5.0 (fun () -> fired := true));
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "event exactly at the horizon fires" true !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.Sim.now sim)

let test_cancel_after_fire sched () =
  let sim = Engine.Sim.create ~sched () in
  let n = ref 0 in
  let h = Engine.Sim.schedule_at sim 1.0 (fun () -> incr n) in
  Engine.Sim.run sim;
  Engine.Sim.cancel sim h;
  (* The record behind [h] is recycled by the next schedule; the stale
     handle must fail its generation check rather than kill the new
     event. *)
  ignore (Engine.Sim.schedule_at sim 2.0 (fun () -> incr n));
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check int) "both events ran despite stale cancels" 2 !n

let test_past_rejected sched () =
  let sim = Engine.Sim.create ~sched () in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         Alcotest.check_raises "past is invalid"
           (Invalid_argument "Sim.schedule_at: time 1 is before now 2")
           (fun () -> ignore (Engine.Sim.schedule_at sim 1.0 ignore))));
  Engine.Sim.run sim

let test_horizon_reached_on_early_drain sched () =
  let sim = Engine.Sim.create ~sched () in
  ignore (Engine.Sim.schedule_at sim 1.0 ignore);
  Engine.Sim.run ~until:10.0 sim;
  Alcotest.(check (float 1e-9))
    "clock lands on horizon after queue empties" 10.0 (Engine.Sim.now sim)

(* Due times past the wheel's tick range used to wrap to [min_int] and
   jump the queue: the wheel then fired nothing before the horizon.
   Both backends must fire A and C by the horizon, leave B pending, and
   fire B last when drained. *)
let far_trace ~sched far =
  let buf = Buffer.create 64 in
  let sim = Engine.Sim.create ~sched () in
  let note tag () =
    Buffer.add_string buf (Printf.sprintf "%s@%h;" tag (Engine.Sim.now sim))
  in
  ignore (Engine.Sim.schedule_at sim 1.0 (note "A"));
  ignore (Engine.Sim.schedule_at sim far (note "B"));
  ignore (Engine.Sim.schedule_at sim 2.0 (note "C"));
  Engine.Sim.run ~until:10.0 sim;
  Buffer.add_string buf
    (Printf.sprintf "horizon@%h+%d;" (Engine.Sim.now sim)
       (Engine.Sim.pending sim));
  Engine.Sim.run sim;
  Buffer.add_string buf (Printf.sprintf "end@%h" (Engine.Sim.now sim));
  Buffer.contents buf

let test_far_times () =
  List.iter
    (fun far ->
      let expect =
        Printf.sprintf "A@%h;C@%h;horizon@%h+1;B@%h;end@%h" 1.0 2.0 10.0 far far
      in
      List.iter
        (fun (name, sched) ->
          Alcotest.(check string)
            (Printf.sprintf "t=%h [%s]" far name)
            expect (far_trace ~sched far))
        scheds)
    [ infinity; 1e13; max_float ]

let test_far_ticks_saturate () =
  let tick = Engine.Wheel.tick_of_time in
  Alcotest.(check bool) "beyond range saturates" true
    (tick 1e13 = tick infinity && tick max_float = tick infinity);
  Alcotest.(check bool) "monotone up to saturation" true
    (tick 0.0 < tick 1.0 && tick 1.0 < tick 1e12 && tick 1e12 <= tick 1e13)

(* Every scheduling entry point rejects a NaN time or delay: NaN
   compares false with everything, so it would slip past the past-time
   check and corrupt either queue's order. *)
let test_nan_rejected sched () =
  let sim = Engine.Sim.create ~sched () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted NaN" what
    | exception Invalid_argument _ -> ()
  in
  rejects "schedule_at" (fun () -> ignore (Engine.Sim.schedule_at sim nan ignore));
  rejects "schedule_after" (fun () ->
      ignore (Engine.Sim.schedule_after sim nan ignore));
  rejects "post_at" (fun () -> Engine.Sim.post_at sim nan ignore);
  rejects "post_after" (fun () -> Engine.Sim.post_after sim nan ignore);
  rejects "schedule_after_ev" (fun () ->
      ignore (Engine.Sim.schedule_after_ev sim nan ignore));
  rejects "run ~until" (fun () -> Engine.Sim.run ~until:nan sim);
  Alcotest.(check int) "nothing was queued" 0 (Engine.Sim.pending sim);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Engine.Sim.now sim)

(* ------------------------------------------------------------------ *)
(* Differential property.  A program is a list of (tag, arg) pairs —
   integers so qcheck can shrink both the list and the elements —
   decoded into schedule_at / schedule_after / cancel / step /
   run ~until operations.  Delays are divisions by primes, giving due
   times with awkward binary fractions that stress the wheel's 1 µs
   tick quantisation.  The trace records every firing (id and clock)
   plus the final clock and executed count; both backends must produce
   it byte-identically. *)

let run_trace ~sched prog =
  let buf = Buffer.create 256 in
  let sim = Engine.Sim.create ~sched () in
  let handles = ref [] in
  let next_id = ref 0 in
  let note id () =
    Buffer.add_string buf
      (Printf.sprintf "%d@%.17g;" id (Engine.Sim.now sim))
  in
  let delay prime a = float_of_int a /. float_of_int prime in
  List.iter
    (fun (tag, a) ->
      match tag mod 5 with
      | 0 ->
          let id = !next_id in
          incr next_id;
          handles :=
            Engine.Sim.schedule_at sim
              (Engine.Sim.now sim +. delay 97 a)
              (note id)
            :: !handles
      | 1 ->
          let id = !next_id in
          incr next_id;
          handles :=
            Engine.Sim.schedule_after sim (delay 89 a) (note id) :: !handles
      | 2 -> (
          match !handles with
          | [] -> ()
          | l -> Engine.Sim.cancel sim (List.nth l (a mod List.length l)))
      | 3 -> ignore (Engine.Sim.step sim : bool)
      | _ ->
          Engine.Sim.run ~until:(Engine.Sim.now sim +. delay 83 a) sim)
    prog;
  Engine.Sim.run sim;
  Buffer.add_string buf
    (Printf.sprintf "end@%.17g#%d" (Engine.Sim.now sim)
       (Engine.Sim.executed sim));
  Buffer.contents buf

let arb_program = QCheck.(list (pair small_nat small_nat))

let prop_differential =
  QCheck.Test.make ~count:300 ~name:"random programs: wheel trace = heap trace"
    arb_program (fun prog ->
      String.equal (run_trace ~sched:`Wheel prog) (run_trace ~sched:`Heap prog))

(* ------------------------------------------------------------------ *)
(* White-box census: after every operation on a bare wheel, events held
   in buckets plus live events staged in the ready heap must equal the
   advertised size, and [length] must equal the number of live events
   we put in. *)

let fresh_ev time seq =
  let ev = Engine.Event.make_dummy () in
  ev.Engine.Event.time <- time;
  ev.Engine.Event.seq <- seq;
  ev.Engine.Event.live <- true;
  ev

let prop_census =
  QCheck.Test.make ~count:200 ~name:"wheel census invariant under random ops"
    arb_program (fun prog ->
      let w = Engine.Wheel.create () in
      let live = ref [] in
      let seq = ref 0 in
      let check () =
        let buckets, ready_live, size, _cursor = Engine.Wheel.census w in
        if buckets + ready_live <> size then
          QCheck.Test.fail_reportf
            "census out of balance: buckets %d + ready %d <> size %d" buckets
            ready_live size;
        if Engine.Wheel.length w <> List.length !live then
          QCheck.Test.fail_reportf "length %d <> live model %d"
            (Engine.Wheel.length w) (List.length !live);
        true
      in
      List.for_all
        (fun (tag, a) ->
          (match tag mod 4 with
          | 0 | 1 ->
              let ev = fresh_ev (float_of_int a /. 97.0) !seq in
              incr seq;
              Engine.Wheel.add w ev;
              live := ev :: !live
          | 2 -> (
              match !live with
              | [] -> ()
              | l ->
                  let ev = List.nth l (a mod List.length l) in
                  ev.Engine.Event.live <- false;
                  ignore (Engine.Wheel.remove w ev : bool);
                  live := List.filter (fun e -> e != ev) !live)
          | _ -> (
              match Engine.Wheel.pop_min w with
              | None -> ()
              | Some ev -> live := List.filter (fun e -> e != ev) !live));
          check ())
        prog)

(* ------------------------------------------------------------------ *)
(* Determinism regression: the 25-seed fuzz smoke corpus replayed under
   each backend; the rendered reports must digest identically. *)

let digest_report ~sched seed =
  let sc = Fuzz.Scenario.generate ~seed in
  let report = Fuzz.Exec.run ~sched sc in
  Digest.to_hex (Digest.string (Format.asprintf "%a" Fuzz.Exec.pp_report report))

let test_fuzz_corpus_digests () =
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d report digest" seed)
        (digest_report ~sched:`Heap seed)
        (digest_report ~sched:`Wheel seed))
    Fuzz.Driver.smoke_corpus

let suite =
  List.concat_map
    (fun (name, sched) ->
      [
        Alcotest.test_case
          (Printf.sprintf "event at horizon fires [%s]" name)
          `Quick
          (test_horizon_event_fires sched);
        Alcotest.test_case
          (Printf.sprintf "cancel after fire is a no-op [%s]" name)
          `Quick
          (test_cancel_after_fire sched);
        Alcotest.test_case
          (Printf.sprintf "past scheduling rejected [%s]" name)
          `Quick (test_past_rejected sched);
        Alcotest.test_case
          (Printf.sprintf "horizon reached on early drain [%s]" name)
          `Quick
          (test_horizon_reached_on_early_drain sched);
        Alcotest.test_case
          (Printf.sprintf "NaN time or delay rejected [%s]" name)
          `Quick (test_nan_rejected sched);
      ])
    scheds
  @ [
      Alcotest.test_case "far due times: wheel = heap" `Quick test_far_times;
      Alcotest.test_case "far ticks saturate" `Quick test_far_ticks_saturate;
      QCheck_alcotest.to_alcotest prop_differential;
      QCheck_alcotest.to_alcotest prop_census;
      Alcotest.test_case "fuzz smoke corpus digests (wheel = heap)" `Quick
        test_fuzz_corpus_digests;
    ]
