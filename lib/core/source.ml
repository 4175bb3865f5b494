type t = {
  take_impl : t -> bool;
  mutable notify : unit -> unit;
  mutable offered : int;
}

let take t =
  let ok = t.take_impl t in
  if ok then t.offered <- t.offered + 1;
  ok

let set_notify t f = t.notify <- f

let offered_packets t = t.offered

let greedy () =
  { take_impl = (fun _ -> true); notify = ignore; offered = 0 }

let pull ~take () = { take_impl = (fun _ -> take ()); notify = ignore; offered = 0 }

let wake t = t.notify ()

let finite ~packets =
  let remaining = ref packets in
  {
    take_impl =
      (fun _ ->
        if !remaining > 0 then begin
          decr remaining;
          true
        end
        else false);
    notify = ignore;
    offered = 0;
  }

(* Shared machinery for rate-shaped sources: a byte accumulator filled
   while [active ()], waking the sender when the next packet is ready.
   Credit and the last refill time live unboxed in [acc], and a
   shortfall re-arms the one prebuilt [wake] thunk, so only a shortfall
   allocates: the two float boxes of the wake-up's delay and due time. *)
type shaper = {
  sim : Engine.Sim.t;
  bytes_per_s : float;
  need : float;  (** bytes in one packet *)
  active : unit -> bool;
  acc : Float.Array.t;  (** [credit; last refill time] *)
  mutable wake : unit -> unit;
}

let credit = 0

let last = 1

let[@vtp.hot] shaped_take sh =
  let now = Engine.Sim.now sh.sim in
  let acc = sh.acc in
  if sh.active () then
    Float.Array.set acc credit
      (Float.Array.get acc credit
      +. ((now -. Float.Array.get acc last) *. sh.bytes_per_s));
  Float.Array.set acc last now;
  let have = Float.Array.get acc credit in
  (* The epsilon absorbs float rounding at the credit boundary; without
     it a wakeup can land infinitesimally short of a packet and respawn
     itself forever at the same virtual instant. *)
  if have >= sh.need -. 1e-6 then begin
    let left = have -. sh.need in
    Float.Array.set acc credit (if left > 0.0 then left else 0.0);
    true
  end
  else begin
    if sh.active () then begin
      let wait = ((sh.need -. have) /. sh.bytes_per_s) +. 1e-6 in
      Engine.Sim.post_after sh.sim
        (if wait > 1e-6 then wait else 1e-6)
        sh.wake
    end;
    false
  end

let shaped ~sim ~rate_bps ~packet_size ~active =
  assert (rate_bps > 0.0 && packet_size > 0);
  let acc = Float.Array.make 2 0.0 in
  Float.Array.set acc last (Engine.Sim.now sim);
  let sh =
    {
      sim;
      bytes_per_s = rate_bps /. 8.0;
      need = float_of_int packet_size;
      active;
      acc;
      wake = Engine.Event.noop;
    }
  in
  let t =
    { take_impl = (fun _ -> shaped_take sh); notify = ignore; offered = 0 }
  in
  sh.wake <- (fun () -> t.notify ());
  t

let cbr ~sim ~rate_bps ~packet_size () =
  shaped ~sim ~rate_bps ~packet_size ~active:(fun () -> true)

let queued () =
  let backlog = ref 0 in
  let t =
    {
      take_impl =
        (fun _ ->
          if !backlog > 0 then begin
            decr backlog;
            true
          end
          else false);
      notify = ignore;
      offered = 0;
    }
  in
  let push n =
    assert (n >= 0);
    if n > 0 then begin
      backlog := !backlog + n;
      t.notify ()
    end
  in
  (t, push)

let on_off ~sim ~rng ~mean_on ~mean_off ~rate_bps ~packet_size () =
  assert (mean_on > 0.0 && mean_off > 0.0);
  let on = ref true in
  let t_ref = ref None in
  let rec toggle () =
    on := not !on;
    let mean = if !on then mean_on else mean_off in
    ignore
      (Engine.Sim.schedule_after sim
         (Engine.Dist.exponential rng ~mean)
         toggle);
    if !on then
      match !t_ref with Some t -> t.notify () | None -> ()
  in
  ignore
    (Engine.Sim.schedule_after sim (Engine.Dist.exponential rng ~mean:mean_on)
       toggle);
  let t = shaped ~sim ~rate_bps ~packet_size ~active:(fun () -> !on) in
  t_ref := Some t;
  t
