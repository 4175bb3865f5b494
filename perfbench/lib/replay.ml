(* Scheduler operation stream: record through [Engine.Sim.set_tracer],
   replay on a bare [Engine.Sim].

   The replay runs the simulation's exact schedule / cancel / pop
   sequence with do-nothing events, so its time is the scheduler's share
   of the run with every protocol cost removed.  Ops are stored in one
   float stream in fixed-size chunks (no copying as it grows): a
   schedule is its time (>= 0), a pop is -1, and a cancel of sequence
   number s is -(s + 2).  Sequence numbers count schedules from zero on
   both sides, so a recorded cancel addresses the same logical event in
   the replay — which requires the tracer to be installed before the
   simulation's first schedule. *)

let chunk_len = 1 lsl 20

type t = {
  mutable chunks : float array list;  (* full chunks, newest first *)
  mutable cur : float array;
  mutable pos : int;
  mutable schedules : int;
  mutable cancels : int;
  mutable pops : int;
  mutable pending : int;
  mutable pending_peak : int;
}

let create () =
  {
    chunks = [];
    cur = Array.make chunk_len 0.0;
    pos = 0;
    schedules = 0;
    cancels = 0;
    pops = 0;
    pending = 0;
    pending_peak = 0;
  }

let push r x =
  if r.pos = chunk_len then begin
    r.chunks <- r.cur :: r.chunks;
    r.cur <- Array.make chunk_len 0.0;
    r.pos <- 0
  end;
  r.cur.(r.pos) <- x;
  r.pos <- r.pos + 1

let record r = function
  | Engine.Sim.T_schedule time ->
      push r time;
      r.schedules <- r.schedules + 1;
      r.pending <- r.pending + 1;
      if r.pending > r.pending_peak then r.pending_peak <- r.pending
  | Engine.Sim.T_cancel seq ->
      push r (-.float_of_int (seq + 2));
      r.cancels <- r.cancels + 1;
      r.pending <- r.pending - 1
  | Engine.Sim.T_pop ->
      push r (-1.0);
      r.pops <- r.pops + 1;
      r.pending <- r.pending - 1

(* Install on a simulation that has not scheduled anything yet. *)
let attach r sim =
  if Engine.Sim.pending sim <> 0 || Engine.Sim.executed sim <> 0 then
    invalid_arg "Replay.attach: the simulation already scheduled events";
  Engine.Sim.set_tracer sim (Some (record r))

let detach sim = Engine.Sim.set_tracer sim None

let length r = (List.length r.chunks * chunk_len) + r.pos

let iter r f =
  List.iter (fun c -> Array.iter f c) (List.rev r.chunks);
  for i = 0 to r.pos - 1 do
    f r.cur.(i)
  done

(* Replay every recorded op on a fresh simulation; returns
   (events popped, seconds taken). *)
let replay r =
  let sim = Engine.Sim.create () in
  let dummy = Engine.Sim.schedule_at (Engine.Sim.create ()) 0.0 ignore in
  let handles = Array.make (Stdlib.max 1 r.schedules) dummy in
  let next = ref 0 in
  let popped = ref 0 in
  let t0 = Clock.now () in
  iter r (fun x ->
      if x >= 0.0 then begin
        handles.(!next) <- Engine.Sim.schedule_at sim x ignore;
        incr next
      end
      else if x = -1.0 then begin
        if Engine.Sim.step sim then incr popped
      end
      else Engine.Sim.cancel sim handles.(int_of_float (-.x) - 2));
  let dt = Clock.now () -. t0 in
  (!popped, dt)
