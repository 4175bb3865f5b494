(* Engine.Sim: event ordering, cancellation, horizons, tie-breaking. *)

let test_runs_in_time_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.Sim.schedule_at sim 3.0 (note "c"));
  ignore (Engine.Sim.schedule_at sim 1.0 (note "a"));
  ignore (Engine.Sim.schedule_at sim 2.0 (note "b"));
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_ties_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int))
    "same-time events run in scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_clock_advances () =
  let sim = Engine.Sim.create () in
  let seen = ref 0.0 in
  ignore (Engine.Sim.schedule_at sim 5.5 (fun () -> seen := Engine.Sim.now sim));
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-9)) "clock at event time" 5.5 !seen

let test_schedule_after () =
  let sim = Engine.Sim.create () in
  let at = ref 0.0 in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         ignore
           (Engine.Sim.schedule_after sim 1.5 (fun () -> at := Engine.Sim.now sim))));
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-9)) "relative schedule" 3.5 !at

let test_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule_at sim 1.0 (fun () -> fired := true) in
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_cancel_idempotent () =
  let sim = Engine.Sim.create () in
  let h = Engine.Sim.schedule_at sim 1.0 ignore in
  Engine.Sim.cancel sim h;
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim

let test_past_scheduling_rejected () =
  let sim = Engine.Sim.create () in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         Alcotest.check_raises "past is invalid"
           (Invalid_argument "Sim.schedule_at: time 1 is before now 2")
           (fun () -> ignore (Engine.Sim.schedule_at sim 1.0 ignore))));
  Engine.Sim.run sim

let test_until_horizon () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.Sim.schedule_at sim (float_of_int i) (fun () -> incr count))
  done;
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only events <= horizon" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  Alcotest.(check int) "rest run later" 10 !count

let test_step () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> incr count));
  ignore (Engine.Sim.schedule_at sim 2.0 (fun () -> incr count));
  Alcotest.(check bool) "first step" true (Engine.Sim.step sim);
  Alcotest.(check int) "one ran" 1 !count;
  Alcotest.(check bool) "second step" true (Engine.Sim.step sim);
  Alcotest.(check bool) "empty" false (Engine.Sim.step sim)

let test_cascading_events () =
  (* Events scheduling events: a chain of n self-propagating steps. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 100 then ignore (Engine.Sim.schedule_after sim 0.1 chain)
  in
  ignore (Engine.Sim.schedule_at sim 0.0 (fun () -> chain ()));
  Engine.Sim.run sim;
  Alcotest.(check int) "chain length" 100 !count;
  Alcotest.(check bool)
    "clock advanced by chain" true
    (Float.abs (Engine.Sim.now sim -. 9.9) < 1e-6)

(* The dispatch loop allocates nothing of its own.  Groups of three
   events share one due time (so the wheel stages them together in its
   ready heap); the first cancels the second, which must then be shed
   as a dead head, and the third is a plain no-op.  All thunks and due
   times are built before counting.  Two warm-up rounds of the same
   shape size the event pool and the scheduler's arrays (the second
   round's offset reaches wheel slots the first did not).  [run ~until]
   boxes its [Some horizon] once per call, so the count is taken
   against the same call on the drained queue. *)
let spine_words ~sched ~until =
  let sim = Engine.Sim.create ~sched () in
  let groups = 2000 in
  let handles = Array.make groups None in
  let killers =
    Array.init groups (fun g () ->
        match handles.(g) with
        | Some h -> Engine.Sim.cancel sim h
        | None -> ())
  in
  let noop () = () in
  let load () =
    let t0 = Engine.Sim.now sim in
    for g = 0 to groups - 1 do
      let at = t0 +. (float_of_int (g + 1) *. 1e-3) in
      ignore (Engine.Sim.schedule_at sim at killers.(g));
      handles.(g) <- Some (Engine.Sim.schedule_at sim at noop);
      ignore (Engine.Sim.schedule_at sim at noop)
    done
  in
  let horizon = ref 0.0 in
  let drain () =
    if until then Engine.Sim.run ~until:!horizon sim else Engine.Sim.run sim
  in
  let counted f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  for _ = 1 to 2 do
    load ();
    horizon := Engine.Sim.now sim +. 10.0;
    drain ()
  done;
  load ();
  horizon := Engine.Sim.now sim +. 10.0;
  let fired = Engine.Sim.executed sim in
  let words = counted drain in
  Alcotest.(check int) "two of three fired per group" (2 * groups)
    (Engine.Sim.executed sim - fired);
  Alcotest.(check int) "queue drained" 0 (Engine.Sim.pending sim);
  (words -. counted drain) /. float_of_int (2 * groups)

let test_spine_alloc_free sched until () =
  Alcotest.(check (float 0.0)) "words per event" 0.0
    (spine_words ~sched ~until)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "FIFO tie-break" `Quick test_ties_fifo;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "past rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "run ~until" `Quick test_until_horizon;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "cascading events" `Quick test_cascading_events;
  ]
  @ List.concat_map
      (fun (name, sched) ->
        [
          Alcotest.test_case
            (Printf.sprintf "run allocates nothing [%s]" name)
            `Quick
            (test_spine_alloc_free sched false);
          Alcotest.test_case
            (Printf.sprintf "run ~until allocates nothing [%s]" name)
            `Quick
            (test_spine_alloc_free sched true);
        ])
      [ ("wheel", `Wheel); ("heap", `Heap) ]
