type sched = [ `Heap | `Wheel ]

type queue = Q_heap of Event.t Heap.t | Q_wheel of Wheel.t

type handle = { ev : Event.t; h_gen : int }

(* Fired and cancelled event records are recycled through a bounded
   free-list so steady-state scheduling allocates only the caller's
   closure and the 2-word handle.  [gen] is bumped on release; a stale
   handle (cancel after fire) fails its generation check and is a
   no-op, exactly as the contract demands. *)
let pool_max = 65536

type trace_op = T_schedule of float | T_cancel of int | T_pop

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : queue;
  root_rng : Rng.t;
  mutable pool : Event.t array;
  mutable pool_n : int;
  mutable executed : int;
  mutable tracer : (trace_op -> unit) option;
  mutable arenas : Slab.t option array;  (* indexed by Slab.key *)
  sentinel : Event.t;  (* dead record [peek] returns from an empty heap *)
}

let create ?(seed = 42) ?(sched = `Wheel) () =
  {
    clock = 0.0;
    next_seq = 0;
    queue =
      (match sched with
      | `Heap -> Q_heap (Heap.create ~compare:Event.compare)
      | `Wheel -> Q_wheel (Wheel.create ()));
    root_rng = Rng.create ~seed;
    pool = [||];
    pool_n = 0;
    executed = 0;
    tracer = None;
    arenas = [||];
    sentinel = Event.make_dummy ();
  }

let arena t lay =
  let k = Slab.key lay in
  if k >= Array.length t.arenas then begin
    let grown = Array.make (Slab.registered ()) None in
    Array.blit t.arenas 0 grown 0 (Array.length t.arenas);
    t.arenas <- grown
  end;
  match t.arenas.(k) with
  | Some a -> a
  | None ->
      let a = Slab.create lay in
      t.arenas.(k) <- Some a;
      a

let now t = t.clock

let rng t = t.root_rng

let split_rng t = Rng.split t.root_rng

let executed t = t.executed

let set_tracer t f = t.tracer <- f

let alloc t time run =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.pool_n > 0 then begin
    let n = t.pool_n - 1 in
    t.pool_n <- n;
    let ev = t.pool.(n) in
    ev.Event.time <- time;
    ev.Event.seq <- seq;
    ev.Event.run <- run;
    ev.Event.live <- true;
    ev
  end
  else
    {
      Event.time;
      seq;
      run;
      live = true;
      gen = 0;
      tick = 0;
      where = Event.in_none;
      pos = 0;
    }

let release t (ev : Event.t) =
  ev.Event.gen <- ev.Event.gen + 1;
  ev.Event.run <- Event.noop;
  ev.Event.live <- false;
  if t.pool_n < Array.length t.pool then begin
    t.pool.(t.pool_n) <- ev;
    t.pool_n <- t.pool_n + 1
  end
  else if Array.length t.pool < pool_max then begin
    let cap = Stdlib.max 64 (2 * Array.length t.pool) in
    let pool = Array.make cap ev in
    Array.blit t.pool 0 pool 0 t.pool_n;
    t.pool <- pool;
    t.pool_n <- t.pool_n + 1
  end
(* else: pool full, let the GC have it *)

(* NaN compares false with everything, so it would slip past the
   past-time check and poison both queues' orderings. *)
let enqueue t ~fn time run =
  if Float.is_nan time then invalid_arg (fn ^ ": NaN time");
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "%s: time %g is before now %g" fn time t.clock);
  let ev = alloc t time run in
  (match t.tracer with Some f -> f (T_schedule time) | None -> ());
  (match t.queue with
  | Q_heap h -> Heap.add h ev
  | Q_wheel w -> Wheel.add w ev);
  ev

let enqueue_after t ~fn delay run =
  if Float.is_nan delay then invalid_arg (fn ^ ": NaN delay");
  if delay < 0.0 then invalid_arg (fn ^ ": negative delay");
  enqueue t ~fn (t.clock +. delay) run

let schedule_at t time run =
  let ev = enqueue t ~fn:"Sim.schedule_at" time run in
  { ev; h_gen = ev.Event.gen }

let schedule_after t delay run =
  let ev = enqueue_after t ~fn:"Sim.schedule_after" delay run in
  { ev; h_gen = ev.Event.gen }

(* Handle-free scheduling for owners that hold the event directly (the
   timer, the TFRC send tick): no 2-word handle per arming.  Callers
   must capture [ev.gen] at scheduling time and cancel via
   {!cancel_ev}. *)
let schedule_after_ev t delay run =
  enqueue_after t ~fn:"Sim.schedule_after_ev" delay run

let post_at t time run = ignore (enqueue t ~fn:"Sim.post_at" time run : Event.t)

let post_after t delay run =
  ignore (enqueue_after t ~fn:"Sim.post_after" delay run : Event.t)

let cancel_ev t ev ~gen =
  if ev.Event.gen = gen && ev.Event.live then begin
    ev.Event.live <- false;
    (match t.tracer with Some f -> f (T_cancel ev.Event.seq) | None -> ());
    match t.queue with
    | Q_heap _ -> () (* lazily collected when it reaches the top *)
    | Q_wheel w -> if Wheel.remove w ev then release t ev
  end

let cancel t { ev; h_gen } = cancel_ev t ev ~gen:h_gen

let pending t =
  match t.queue with Q_heap h -> Heap.length h | Q_wheel w -> Wheel.length w

(* The per-event spine.  [peek] returns the next live event, or a dead
   sentinel ([live = false]) when none is queued, shedding cancelled
   heap entries as they surface; [fire] detaches the head [peek] just
   returned and runs it.  Neither allocates.  Cancelled events never run
   and never advance the clock, under either scheduler. *)
let[@vtp.hot] rec peek t =
  match t.queue with
  | Q_wheel w -> Wheel.peek w
  | Q_heap h ->
      if Heap.is_empty h then t.sentinel
      else
        let ev = Heap.top h in
        if ev.Event.live then ev
        else begin
          Heap.drop_min h;
          release t ev;
          peek t
        end

let[@vtp.hot] fire t (ev : Event.t) =
  (match t.queue with
  | Q_heap h -> Heap.drop_min h
  | Q_wheel w -> Wheel.drop w);
  t.clock <- ev.Event.time;
  t.executed <- t.executed + 1;
  (match t.tracer with Some f -> f T_pop | None -> ());
  let run = ev.Event.run in
  release t ev;
  run ()

let[@vtp.hot] step t =
  let ev = peek t in
  if ev.Event.live then begin
    fire t ev;
    true
  end
  else false

let[@vtp.hot] rec run_until t horizon =
  let ev = peek t in
  if ev.Event.live && ev.Event.time <= horizon then begin
    fire t ev;
    run_until t horizon
  end
  else t.clock <- Stdlib.max t.clock horizon

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      if Float.is_nan horizon then invalid_arg "Sim.run: NaN horizon";
      run_until t horizon
