(* Hierarchical timer wheel.

   Virtual time is quantised to 1 µs ticks.  Nine levels of 32 slots
   give 2^45 ticks (~400 virtual days) of horizon; anything further
   lands in an overflow bucket that is respread when reached.  Level 0
   slots are single ticks; a level-l slot spans 32^l ticks.  An event is
   filed at the highest level in which its tick differs from the cursor,
   so it cascades toward level 0 as the cursor approaches — classic
   hashed-and-hierarchical wheel (Varghese & Lauck) with absolute slot
   indexing.

   Firing order: the next occupied level-0 slot is drained into a small
   "ready" binary heap ordered by (time, seq), which resolves both
   sub-tick ordering (several float times can share a tick) and FIFO
   ties — so the observable event order is byte-identical to the
   reference binary-heap scheduler.

   Cancellation is eager: every event knows its bucket and index, so a
   cancel is an O(1) swap-remove and the record can be recycled
   immediately.  The reference heap, by contrast, keeps cancelled
   entries until they are popped — under timer churn (RTO restarted on
   every ACK) that is the difference between holding the live set and
   holding the whole scheduled history. *)

let slot_bits = 5

let slots = 32

let slot_mask = slots - 1

let levels = 9

let overflow_id = levels * slots

let ticks_per_second = 1e6

(* Due times past [max_tick] (about 73,000 virtual years, and every
   infinite time) share that one tick: they wait in the overflow
   bucket, and the ready heap still fires them in (time, seq) order.
   Without the clamp, [int_of_float] wraps them to [min_int], before
   the cursor, and they would jump the queue. *)
let max_tick = 1 lsl 61

let max_tick_time = float_of_int max_tick

let tick_of_time time =
  let x = time *. ticks_per_second in
  if x < max_tick_time then int_of_float x else max_tick

type bucket = { mutable arr : Event.t array; mutable n : int }

type t = {
  dummy : Event.t;  (** filler for vacated array slots *)
  buckets : bucket array;  (** [levels * slots] wheel slots + overflow *)
  masks : int array;  (** per-level slot-occupancy bitmaps *)
  mutable cursor : int;  (** first tick not yet drained *)
  ready : Event.t Heap.t;  (** staged events, ordered by (time, seq) *)
  mutable size : int;  (** live events across buckets and ready *)
}

let create () =
  let dummy = Event.make_dummy () in
  {
    dummy;
    buckets = Array.init (overflow_id + 1) (fun _ -> { arr = [||]; n = 0 });
    masks = Array.make levels 0;
    cursor = 0;
    ready = Heap.create ~compare:Event.compare;
    size = 0;
  }

let length t = t.size

let[@vtp.hot] bucket_push t id (ev : Event.t) =
  let b = t.buckets.(id) in
  if b.n >= Array.length b.arr then begin
    let cap = Stdlib.max 4 (2 * Array.length b.arr) in
    let arr = Array.make cap t.dummy in
    Array.blit b.arr 0 arr 0 b.n;
    b.arr <- arr
  end;
  b.arr.(b.n) <- ev;
  ev.Event.where <- id;
  ev.Event.pos <- b.n;
  b.n <- b.n + 1

(* The level at which [tick] parts ways with the cursor: index of the
   highest differing 5-bit slot group ([levels] = beyond the horizon).
   Equal ticks file at level 0, in the cursor's own slot. *)
let[@vtp.hot] rec find_level x l =
  if l >= levels then levels
  else if x < 1 lsl (slot_bits * (l + 1)) then l
  else find_level x (l + 1)

let[@vtp.hot] level_of t tick = find_level (tick lxor t.cursor) 0

let[@vtp.hot] place t (ev : Event.t) =
  let l = level_of t ev.Event.tick in
  if l >= levels then bucket_push t overflow_id ev
  else begin
    let s = (ev.Event.tick lsr (slot_bits * l)) land slot_mask in
    bucket_push t ((l * slots) + s) ev;
    t.masks.(l) <- t.masks.(l) lor (1 lsl s)
  end

let[@vtp.hot] add t (ev : Event.t) =
  ev.Event.tick <- tick_of_time ev.Event.time;
  t.size <- t.size + 1;
  if ev.Event.tick < t.cursor then begin
    (* Due inside the already-drained region (the cursor may sit ahead
       of the sim clock after a peek): stage directly. *)
    ev.Event.where <- Event.in_ready;
    Heap.add t.ready ev
  end
  else place t ev

let[@vtp.hot] remove t (ev : Event.t) =
  let id = ev.Event.where in
  if id >= 0 then begin
    let b = t.buckets.(id) in
    let last = b.n - 1 in
    let moved = b.arr.(last) in
    b.arr.(ev.Event.pos) <- moved;
    moved.Event.pos <- ev.Event.pos;
    b.arr.(last) <- t.dummy;
    b.n <- last;
    if last = 0 && id < overflow_id then begin
      let l = id / slots and s = id mod slots in
      t.masks.(l) <- t.masks.(l) land lnot (1 lsl s)
    end;
    ev.Event.where <- Event.in_none;
    t.size <- t.size - 1;
    true
  end
  else if id = Event.in_ready then begin
    (* Buried in the ready heap: account for it now, let the pop path
       discard the (dead) record when it surfaces. *)
    t.size <- t.size - 1;
    false
  end
  else false

let[@vtp.hot] drain_slot t s =
  let b = t.buckets.(s) in
  let n = b.n in
  for i = 0 to n - 1 do
    let ev = b.arr.(i) in
    b.arr.(i) <- t.dummy;
    ev.Event.where <- Event.in_ready;
    Heap.add t.ready ev
  done;
  b.n <- 0;
  t.masks.(0) <- t.masks.(0) land lnot (1 lsl s);
  n

let[@vtp.hot] cascade t l s =
  let id = (l * slots) + s in
  let b = t.buckets.(id) in
  let n = b.n in
  b.n <- 0;
  t.masks.(l) <- t.masks.(l) land lnot (1 lsl s);
  for i = 0 to n - 1 do
    let ev = b.arr.(i) in
    b.arr.(i) <- t.dummy;
    (* The cursor now shares this event's level-[l] group, so it files
       strictly below level [l]: no infinite loop. *)
    place t ev
  done

(* All finite levels are empty: jump to the earliest overflow tick and
   re-place everything relative to the new cursor. *)
let respread_overflow t =
  let b = t.buckets.(overflow_id) in
  let n = b.n in
  let min_tick = ref b.arr.(0).Event.tick in
  for i = 1 to n - 1 do
    if b.arr.(i).Event.tick < !min_tick then min_tick := b.arr.(i).Event.tick
  done;
  t.cursor <- !min_tick;
  let stash = Array.sub b.arr 0 n in
  Array.fill b.arr 0 n t.dummy;
  b.n <- 0;
  Array.iter (fun ev -> place t ev) stash

let[@vtp.hot] rec lowest_bit_from i m =
  if m land 1 = 1 then i else lowest_bit_from (i + 1) (m lsr 1)

let[@vtp.hot] lowest_bit_index m = lowest_bit_from 0 m

(* The cursor just carried across a window boundary (its level-0 group
   wrapped to 0).  Cascade the slot it now occupies at every level the
   carry propagated through, highest first, so no event sits parked at
   level l while the cursor is inside that very window — otherwise
   later level-0 traffic would be drained past it. *)
let[@vtp.hot] rec carry_top t l =
  if l < levels && t.cursor land ((1 lsl (slot_bits * (l + 1))) - 1) = 0 then
    carry_top t (l + 1)
  else l

let[@vtp.hot] enter_window t =
  let h = carry_top t 1 in
  for l = h downto 1 do
    let s = (t.cursor lsr (slot_bits * l)) land slot_mask in
    if t.masks.(l) land (1 lsl s) <> 0 then cascade t l s
  done

(* Advance the cursor to the next occupied tick and stage that slot.
   [true] iff anything was staged. *)
let[@vtp.hot] rec refill t =
  let cur0 = t.cursor land slot_mask in
  let m0 = t.masks.(0) land (-1 lsl cur0) in
  if m0 <> 0 then begin
    let s = lowest_bit_index m0 in
    t.cursor <- t.cursor land lnot slot_mask lor s;
    let staged = drain_slot t s in
    t.cursor <- t.cursor + 1;
    if t.cursor land slot_mask = 0 then enter_window t;
    if staged > 0 then true else refill t
  end
  else climb t 1

(* Level 0 exhausted for this window: open the next occupied window of
   the lowest occupied level and cascade it down. *)
and climb t l =
  if l >= levels then
    if t.buckets.(overflow_id).n > 0 then begin
      respread_overflow t;
      refill t
    end
    else false
  else begin
    let cur_l = (t.cursor lsr (slot_bits * l)) land slot_mask in
    let m = t.masks.(l) land (-1 lsl cur_l) in
    if m = 0 then climb t (l + 1)
    else begin
      let s = lowest_bit_index m in
      let low = (1 lsl (slot_bits * (l + 1))) - 1 in
      t.cursor <- t.cursor land lnot low lor (s lsl (slot_bits * l));
      cascade t l s;
      refill t
    end
  end
[@@vtp.hot]

(* The next live event, or [t.dummy] (dead) when the wheel is empty.
   Staged records cancelled after they reached the ready heap are shed
   as they surface. *)
let[@vtp.hot] rec peek t =
  if Heap.is_empty t.ready then
    if t.size = 0 then t.dummy
    else if refill t then peek t
    else failwith "Engine.Wheel: size accounting out of sync"
  else
    let ev = Heap.top t.ready in
    if ev.Event.live then ev
    else begin
      (* cancelled while staged: drop the corpse and keep looking *)
      Heap.drop_min t.ready;
      ev.Event.where <- Event.in_none;
      peek t
    end

(* Detach the head [peek] just returned. *)
let[@vtp.hot] drop t =
  let ev = Heap.top t.ready in
  Heap.drop_min t.ready;
  ev.Event.where <- Event.in_none;
  t.size <- t.size - 1

let pop_min t =
  let ev = peek t in
  if ev.Event.live then (drop t; Some ev) else None

(* White-box accounting census for tests: every live event must be
   held exactly once, in a bucket or staged in the ready heap. *)
let census t =
  let live = ref 0 in
  Array.iter (fun b -> live := !live + b.n) t.buckets;
  let ready_live = ref 0 in
  List.iter (fun (ev : Event.t) -> if ev.live then incr ready_live)
    (Heap.to_sorted_list t.ready);
  (!live, !ready_live, t.size, t.cursor)
