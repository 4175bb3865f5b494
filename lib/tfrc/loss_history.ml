module Serial = Packet.Serial

(* Run-length hole tracking: holes live in sorted parallel int arrays
   of half-open [lo, hi) runs over absolute positions, and the
   per-hole "packets seen after" counter is virtualised through a
   global epoch — every new-maximum packet bumps [epoch] once instead
   of touching every hole, and a run born at epoch [b] has seen
   [epoch - b + 1] later packets.  Births are non-decreasing along the
   array, so ripe holes are always a prefix and promotion is O(ripe).
   [Loss_history_ref] keeps the per-hole list implementation as the
   differential oracle.

   Absolute positions are anchored at the highest sequence seen:
   [abs = max_abs + Serial.diff s max_seq]. *)

(* Closed intervals live newest-first in a ring of [history] cells of
   [ring]: interval [i] (0 = newest) sits at [(head + i) mod history],
   and only the first [closed] are live.  The scalar float state sits
   in [sc], so neither the open loss event nor the replay clock is an
   option or a boxed record field. *)

(* [sc] cells *)
let sc_ev_start = 0 (* start time of the open loss event *)
let sc_closed_sum = 1 (* left fold (+.) over the closed intervals *)
let sc_replay = 2 (* virtual arrival clock of [on_replay] *)
let sc_num0 = 3 (* §5.4 sums without the open interval *)
let sc_den0 = 4
let sc_num1 = 5 (* §5.4 sums with the open interval *)
let sc_den1 = 6
let sc_cells = 7

type t = {
  ndup : int;
  history : int;
  discount : bool;
  cost : Stats.Cost.t option;
  weights : Float.Array.t;  (* §5.4 weight of term i, i < history *)
  ring : Float.Array.t;
  mutable head : int;
  mutable closed : int;  (* live closed intervals, <= history *)
  sc : Float.Array.t;
  mutable has_max : bool;  (* any non-retransmitted packet seen? *)
  mutable max_seq : Serial.t;  (* meaningful only when [has_max] *)
  mutable max_abs : int;
  (* hole runs, live in [h_fst, h_len) of the parallel arrays *)
  mutable h_lo : int array;
  mutable h_hi : int array;
  mutable h_born : int array;  (* epoch at creation *)
  mutable h_fst : int;
  mutable h_len : int;
  mutable epoch : int;  (* new-maximum packets accounted so far *)
  mutable hole_count : int;  (* sum of run widths *)
  mutable has_event : bool;  (* a loss event is open *)
  mutable ev_seq : Serial.t;  (* its start; meaningful only when open *)
  mutable events : int;
  mutable losses : int;
  mutable marks : int;
  mutable seen : int;
}

(* The weights of RFC 3448 §5.4 for n = 8; for other history depths we
   keep full weight on the newer half and taper linearly on the older. *)
let weight ~history i =
  if history = 8 then
    match i with
    | 0 | 1 | 2 | 3 -> 1.0
    | 4 -> 0.8
    | 5 -> 0.6
    | 6 -> 0.4
    | _ -> 0.2
  else begin
    let half = history / 2 in
    if i < half then 1.0
    else
      float_of_int (history - i) /. float_of_int (history - half + 1)
  end

let create ?(ndup = 3) ?(history = 8) ?(discount = true) ?cost () =
  if ndup < 1 then invalid_arg "Tfrc.Loss_history.create: ndup must be >= 1";
  if history < 1 then
    invalid_arg "Tfrc.Loss_history.create: history must be >= 1";
  {
    ndup;
    history;
    discount;
    cost;
    weights = Float.Array.init history (weight ~history);
    ring = Float.Array.make history 0.0;
    head = 0;
    closed = 0;
    sc = Float.Array.make sc_cells 0.0;
    has_max = false;
    max_seq = Serial.zero;
    max_abs = 0;
    h_lo = Array.make 8 0;
    h_hi = Array.make 8 0;
    h_born = Array.make 8 0;
    h_fst = 0;
    h_len = 0;
    epoch = 0;
    hole_count = 0;
    has_event = false;
    ev_seq = Serial.zero;
    events = 0;
    losses = 0;
    marks = 0;
    seen = 0;
  }

let[@inline] sc_get t j = Float.Array.unsafe_get t.sc j
let[@inline] sc_set t j v = Float.Array.unsafe_set t.sc j v

(* Closed interval [i], newest first; [i < t.closed]. *)
let[@inline] closed_at t i =
  let j = t.head + i in
  Float.Array.unsafe_get t.ring (if j >= t.history then j - t.history else j)

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let watermark t =
  match t.cost with
  | Some c -> Stats.Cost.watermark c "lh.entries" (t.hole_count + t.closed)
  | None -> ()

(* Prepend [len] as the newest closed interval, dropping the oldest
   once [history] are held, and refresh the closed sum the §5.5
   discount reads.  The sum folds newest first from 0.0, the order of
   [List.fold_left ( +. ) 0.0] over [Loss_history_ref]'s list. *)
let push_closed t len =
  t.head <- (if t.head = 0 then t.history - 1 else t.head - 1);
  Float.Array.unsafe_set t.ring t.head len;
  if t.closed < t.history then t.closed <- t.closed + 1;
  sc_set t sc_closed_sum 0.0;
  for i = 0 to t.closed - 1 do
    sc_set t sc_closed_sum (sc_get t sc_closed_sum +. closed_at t i)
  done

(* Shared event machinery: a congestion signal (drop or ECN mark) at
   [seq]/[time] joins the current loss event if within one RTT of its
   start, otherwise closes the running interval and opens a new event. *)
let note_congestion_event t ~seq ~time ~rtt =
  if t.has_event && time -. sc_get t sc_ev_start <= rtt then
    (* Same loss event: TCP would halve only once for this window. *)
    ()
  else begin
    if t.has_event then
      (* Close the interval that ran from the previous event to this one
         (length counted in sequence space). *)
      push_closed t (float_of_int (Stdlib.max 1 (Serial.diff seq t.ev_seq)));
    t.has_event <- true;
    t.ev_seq <- seq;
    sc_set t sc_ev_start time;
    t.events <- t.events + 1
  end

let record_loss t ~seq ~time ~rtt =
  t.losses <- t.losses + 1;
  charge t "lh.loss";
  note_congestion_event t ~seq ~time ~rtt

let on_congestion_mark t ~seq ~arrival ~rtt =
  t.marks <- t.marks + 1;
  charge t "lh.ce_mark";
  note_congestion_event t ~seq ~time:arrival ~rtt

let set_first_interval t len =
  if t.closed = 0 && len > 0.0 then push_closed t len

(* Handover discontinuity: outstanding holes and the open event belong
   to the old path, so they are forgotten wholesale; the closed history
   collapses to the single synthetic interval [len].  Sequence tracking
   ([max_seq]/[max_abs]) and the replay clock are untouched — numbering
   continues across the migration. *)
let reseed t len =
  t.h_fst <- 0;
  t.h_len <- 0;
  t.hole_count <- 0;
  t.has_event <- false;
  t.closed <- 0;
  if len > 0.0 then push_closed t len

(* Holes exist only once a packet has set [max_seq]. *)
let ser_of t a = Serial.add t.max_seq (a - t.max_abs)

(* A run born at epoch [b] has [epoch - b + 1] confirming later
   packets (the packet that created it counts as the first). *)
let[@vtp.hot] ripe t i = t.epoch - Array.unsafe_get t.h_born i + 1 >= t.ndup

(* Ripe runs are a prefix (births are non-decreasing along the array):
   promote each of their positions to a loss, in ascending order, by
   advancing the front offset. *)
let promote_ripe_holes t ~arrival ~rtt =
  while t.h_fst < t.h_len && ripe t t.h_fst do
    let i = t.h_fst in
    for a = t.h_lo.(i) to t.h_hi.(i) - 1 do
      record_loss t ~seq:(ser_of t a) ~time:arrival ~rtt
    done;
    t.hole_count <- t.hole_count - (t.h_hi.(i) - t.h_lo.(i));
    t.h_fst <- i + 1
  done

(* Make room for one more run at the back. *)
let reserve t =
  let cap = Array.length t.h_lo in
  if t.h_len = cap then begin
    let live = t.h_len - t.h_fst in
    if t.h_fst > 0 then begin
      Array.blit t.h_lo t.h_fst t.h_lo 0 live;
      Array.blit t.h_hi t.h_fst t.h_hi 0 live;
      Array.blit t.h_born t.h_fst t.h_born 0 live
    end
    else begin
      let ncap = 2 * cap in
      let nlo = Array.make ncap 0
      and nhi = Array.make ncap 0
      and nborn = Array.make ncap 0 in
      Array.blit t.h_lo t.h_fst nlo 0 live;
      Array.blit t.h_hi t.h_fst nhi 0 live;
      Array.blit t.h_born t.h_fst nborn 0 live;
      t.h_lo <- nlo;
      t.h_hi <- nhi;
      t.h_born <- nborn
    end;
    t.h_fst <- 0;
    t.h_len <- live
  end

let append_run t l h =
  reserve t;
  t.h_lo.(t.h_len) <- l;
  t.h_hi.(t.h_len) <- h;
  t.h_born.(t.h_len) <- t.epoch;
  t.h_len <- t.h_len + 1;
  t.hole_count <- t.hole_count + (h - l)

(* Smallest live index whose run ends strictly after [a]. *)
let[@vtp.hot] rec seek_from t a lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get t.h_hi mid > a then seek_from t a lo mid
    else seek_from t a (mid + 1) hi

(* A late arrival fills one hole: remove the single position [a],
   splitting its run when it sits strictly inside. *)
let fill_hole t a =
  let i = seek_from t a t.h_fst t.h_len in
  if i < t.h_len && t.h_lo.(i) <= a then begin
    t.hole_count <- t.hole_count - 1;
    if t.h_hi.(i) - t.h_lo.(i) = 1 then begin
      Array.blit t.h_lo (i + 1) t.h_lo i (t.h_len - i - 1);
      Array.blit t.h_hi (i + 1) t.h_hi i (t.h_len - i - 1);
      Array.blit t.h_born (i + 1) t.h_born i (t.h_len - i - 1);
      t.h_len <- t.h_len - 1
    end
    else if t.h_lo.(i) = a then t.h_lo.(i) <- a + 1
    else if t.h_hi.(i) = a + 1 then t.h_hi.(i) <- a
    else begin
      (* split: both halves keep the birth epoch *)
      reserve t;
      let i = seek_from t a t.h_fst t.h_len in
      Array.blit t.h_lo i t.h_lo (i + 1) (t.h_len - i);
      Array.blit t.h_hi i t.h_hi (i + 1) (t.h_len - i);
      Array.blit t.h_born i t.h_born (i + 1) (t.h_len - i);
      t.h_len <- t.h_len + 1;
      t.h_hi.(i) <- a;
      t.h_lo.(i + 1) <- a + 1
    end
  end

(* Sequence accounting for one non-retransmitted packet: maximum,
   new holes, late fills.  Integer work only. *)
let[@vtp.hot] account t seq =
  charge t "lh.update";
  t.seen <- t.seen + 1;
  if not t.has_max then begin
    t.has_max <- true;
    t.max_seq <- seq
  end
  else if Serial.( > ) seq t.max_seq then begin
    (* Every pre-existing hole saw one more subsequent packet; the
       epoch bump accounts for all of them at once.  The skipped
       numbers become one fresh run — the arriving packet itself lies
       beyond it, so it counts as the first confirmation. *)
    t.epoch <- t.epoch + 1;
    let d = Serial.diff seq t.max_seq in
    if d > 1 then begin
      append_run t (t.max_abs + 1) (t.max_abs + d);
      for _ = 2 to d do
        charge t "lh.hole"
      done
    end;
    t.max_abs <- t.max_abs + d;
    t.max_seq <- seq
  end
  else
    (* Late arrival filling a hole: it was never lost. *)
    fill_hole t (t.max_abs + Serial.diff seq t.max_seq)

let[@inline] has_ripe t = t.h_fst < t.h_len && ripe t t.h_fst

let[@vtp.hot] on_packet t ~seq ~arrival ~rtt ~is_retx =
  if not is_retx then begin
    account t seq;
    promote_ripe_holes t ~arrival ~rtt;
    watermark t
  end

(* The replay clock is advanced (and kept monotone) before anything
   else, retransmissions included.  [arrival] stays unboxed unless a
   ripe hole needs it as a loss time. *)
let[@vtp.hot] on_replay t ~seq ~sent_at ~rtt ~is_retx =
  let arrival = Float.max (sc_get t sc_replay) (sent_at +. rtt) in
  sc_set t sc_replay arrival;
  if not is_retx then begin
    account t seq;
    if has_ripe t then promote_ripe_holes t ~arrival ~rtt;
    watermark t
  end

let replay_clock t = sc_get t sc_replay

(* Packets since the start of the open loss event (0 before any). *)
let[@inline] open_len t =
  if t.has_event && t.has_max then
    float_of_int (Stdlib.max 0 (Serial.diff t.max_seq t.ev_seq))
  else 0.0

let open_interval t = open_len t

let charge_rate_calc t ops =
  match t.cost with
  | Some c -> Stats.Cost.charge c ~ops "lh.rate_calc"
  | None -> ()

(* The §5.4 weighted mean of the closed intervals alone and of the open
   interval followed by the newest [history - 1] closed ones (§5.5
   discounting the closed terms when the open interval dominates), in
   one pass; the result is the larger.  Each sum accumulates in the
   order of [Loss_history_ref]'s list formulation, term 0 first from
   0.0, and each weight is [w_i *. factor] as there (a factor of 1.0 is
   exact), so the result is bit-identical to it.  The sums live in [sc]
   cells: no ref, closure or list. *)
let[@inline] [@vtp.hot] mean t =
  let k = t.closed in
  if k = 0 && not t.has_event then infinity
  else begin
    let m = if k < t.history - 1 then k else t.history - 1 in
    let i0 = open_len t in
    let df =
      if not t.discount then 1.0
      else begin
        let closed_mean =
          if k = 0 then 0.0 else sc_get t sc_closed_sum /. float_of_int k
        in
        if closed_mean > 0.0 && i0 > 2.0 *. closed_mean then
          Float.max 0.25 (2.0 *. closed_mean /. i0)
        else 1.0
      end
    in
    let w0 = Float.Array.unsafe_get t.weights 0 *. 1.0 in
    sc_set t sc_num0 0.0;
    sc_set t sc_den0 0.0;
    sc_set t sc_num1 (0.0 +. (w0 *. i0));
    sc_set t sc_den1 (0.0 +. w0);
    for i = 0 to k - 1 do
      let len = closed_at t i in
      let w = Float.Array.unsafe_get t.weights i *. 1.0 in
      sc_set t sc_num0 (sc_get t sc_num0 +. (w *. len));
      sc_set t sc_den0 (sc_get t sc_den0 +. w);
      if i < m then begin
        let w = Float.Array.unsafe_get t.weights (i + 1) *. df in
        sc_set t sc_num1 (sc_get t sc_num1 +. (w *. len));
        sc_set t sc_den1 (sc_get t sc_den1 +. w)
      end
    done;
    (* In [Loss_history_ref]'s order: the with-open pass first. *)
    charge_rate_calc t (m + 1);
    if k > 0 then charge_rate_calc t k;
    let without_open =
      if k = 0 || sc_get t sc_den0 = 0.0 then infinity
      else sc_get t sc_num0 /. sc_get t sc_den0
    in
    let with_open =
      if sc_get t sc_den1 = 0.0 then infinity
      else sc_get t sc_num1 /. sc_get t sc_den1
    in
    Float.max without_open with_open
  end

let mean_interval t = mean t

let loss_event_rate t =
  let m = mean t in
  if Float.is_finite m && m > 0.0 then Float.min 1.0 (1.0 /. m) else 0.0

let loss_events t = t.events
let losses t = t.losses
let congestion_marks t = t.marks
let packets_seen t = t.seen
let max_seq t = if t.has_max then Some t.max_seq else None
let highest_seq t = if t.has_max then t.max_seq else Serial.zero
let closed_intervals t = List.init t.closed (closed_at t)
let holes_held t = t.h_len - t.h_fst
