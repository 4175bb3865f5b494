module Serial = Packet.Serial

(* Run-length scoreboard: instead of one hashtable entry per in-flight
   sequence number, per-packet metadata (send times, size, retransmit
   count) lives in ring arrays indexed by an absolute position, and the
   SACKed / inferred-lost state lives in two sorted, coalesced run
   arrays.  Feedback for a large-BDP window (tens of thousands of
   packets) then merges in O(log runs + newly-covered) instead of
   iterating every sequence number.  [Scoreboard_ref] keeps the
   per-entry implementation as the differential oracle.

   Sequence numbers are mapped to monotone absolute positions through
   an advancing anchor: [abs = una_abs + Serial.diff s snd_una].  The
   anchor moves only forward (cumulative ack, abandon), so positions
   never wrap even though serials do. *)

type cover = {
  cov_seq : Serial.t;
  cov_sent_at : float;
  cov_was_retx : bool;
}

let grow_ints a n =
  let b = Array.make (Stdlib.max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Sorted, coalesced, half-open [lo, hi) runs over absolute positions,
   in growable parallel arrays. *)
module Runs = struct
  type t = { mutable lo : int array; mutable hi : int array; mutable len : int }

  let create () = { lo = Array.make 8 0; hi = Array.make 8 0; len = 0 }

  (* Smallest index whose run ends strictly after [x] — the only run
     that can contain [x].  Plain accumulator recursion so the
     per-packet membership test allocates nothing. *)
  let[@vtp.hot] rec seek_from t x lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if Array.unsafe_get t.hi mid > x then seek_from t x lo mid
      else seek_from t x (mid + 1) hi

  let[@vtp.hot] seek t x = seek_from t x 0 t.len

  let[@vtp.hot] mem t x =
    let i = seek t x in
    i < t.len && Array.unsafe_get t.lo i <= x

  let ensure t extra =
    if t.len + extra > Array.length t.lo then begin
      t.lo <- grow_ints t.lo (t.len + extra);
      t.hi <- grow_ints t.hi (t.len + extra)
    end

  (* Replace runs [i, j) by the single run [l, h); [j = i] inserts. *)
  let splice t i j l h =
    if j - i = 1 then begin
      t.lo.(i) <- l;
      t.hi.(i) <- h
    end
    else if j > i then begin
      t.lo.(i) <- l;
      t.hi.(i) <- h;
      Array.blit t.lo j t.lo (i + 1) (t.len - j);
      Array.blit t.hi j t.hi (i + 1) (t.len - j);
      t.len <- t.len - (j - i - 1)
    end
    else begin
      ensure t 1;
      Array.blit t.lo i t.lo (i + 1) (t.len - i);
      Array.blit t.hi i t.hi (i + 1) (t.len - i);
      t.lo.(i) <- l;
      t.hi.(i) <- h;
      t.len <- t.len + 1
    end

  (* Add [l, h), coalescing with every overlapping or touching run. *)
  let add t l h =
    if l < h then begin
      let i = seek t (l - 1) in
      let j = ref i in
      while !j < t.len && t.lo.(!j) <= h do
        incr j
      done;
      if i = !j then splice t i i l h
      else splice t i !j (Stdlib.min l t.lo.(i)) (Stdlib.max h t.hi.(!j - 1))
    end

  (* Remove [l, h), trimming straddlers and splitting a container. *)
  let remove t l h =
    if l < h then begin
      let i = seek t l in
      if i < t.len && t.lo.(i) < h then begin
        if t.lo.(i) < l && t.hi.(i) > h then begin
          (* one run strictly contains [l, h): split it *)
          ensure t 1;
          Array.blit t.lo i t.lo (i + 1) (t.len - i);
          Array.blit t.hi i t.hi (i + 1) (t.len - i);
          t.len <- t.len + 1;
          t.hi.(i) <- l;
          t.lo.(i + 1) <- h
        end
        else begin
          let i = if t.lo.(i) < l then begin t.hi.(i) <- l; i + 1 end else i in
          let j = ref i in
          while !j < t.len && t.hi.(!j) <= h do
            incr j
          done;
          if !j < t.len && t.lo.(!j) < h then t.lo.(!j) <- h;
          if !j > i then begin
            Array.blit t.lo !j t.lo i (t.len - !j);
            Array.blit t.hi !j t.hi i (t.len - !j);
            t.len <- t.len - (!j - i)
          end
        end
      end
    end

  (* Drop everything below [x]. *)
  let trim_below t x =
    let i = seek t x in
    if i > 0 then begin
      Array.blit t.lo i t.lo 0 (t.len - i);
      Array.blit t.hi i t.hi 0 (t.len - i);
      t.len <- t.len - i
    end;
    if t.len > 0 && t.lo.(0) < x then t.lo.(0) <- x

  (* Absolute position of the [k]-th highest covered point, or
     [min_int] when fewer than [k] points are covered. *)
  let rec kth_from_top_at t i k =
    if i < 0 then min_int
    else
      let w = t.hi.(i) - t.lo.(i) in
      if k <= w then t.hi.(i) - k
      else kth_from_top_at t (i - 1) (k - w)

  let kth_from_top t k = kth_from_top_at t (t.len - 1) k

  (* Fold [f x gl gh] over every maximal uncovered gap [gl, gh) within
     [l, h), ascending.  The walk state rides in the arguments, so with
     a closed top-level [f] a fold allocates nothing. *)
  let rec fold_gaps_from t i a h f x acc =
    if a >= h then acc
    else if i >= t.len then f x a h acc
    else
      let lo = Array.unsafe_get t.lo i in
      let acc = if a < lo then f x a (Stdlib.min h lo) acc else acc in
      fold_gaps_from t (i + 1)
        (Stdlib.max a (Array.unsafe_get t.hi i))
        h f x acc

  let fold_gaps t l h f x acc = fold_gaps_from t (seek t l) l h f x acc
end

type t = {
  dupthresh : int;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  (* ring arrays indexed by [abs land mask]; live slots are exactly
     [una_abs, nxt_abs) *)
  mutable first_sent : float array;
  mutable last_sent : float array;
  mutable meta : int array;  (* size lor (retx lsl retx_shift) *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable una_abs : int;
  mutable nxt_abs : int;
  mutable snd_una : Serial.t;
  mutable snd_nxt : Serial.t;
  sacked : Runs.t;
  lost : Runs.t;
  mutable unsacked_bytes : int;
  mutable sent : int;
  mutable retx : int;
  mutable acked : int;
  (* reusable per-feedback scratch runs: the clipped SACK blocks
     (phase 2) and the freshly inferred loss runs (phase 3) of
     [digest], and the expired positions of [mark_expired] *)
  mutable scr_lo : int array;
  mutable scr_hi : int array;
  (* the last [digest]'s staged output (see there) *)
  mutable cov_key : int array;
  mutable cov_sent : float array;
  mutable ncov : int;
  mutable nacked : int;
  mutable lost_pos : int array;
  mutable nlost : int;
  mutable cum_advanced : bool;
}

let retx_shift = 30
let size_mask = (1 lsl retx_shift) - 1

let create ?(dupthresh = 3) ?(capacity = 256) ?cost ?trace () =
  assert (dupthresh >= 1);
  (* Round the ring up to a power of two; large-BDP senders pass their
     expected window so steady state never pays the doubling copies. *)
  let cap = ref 256 in
  while !cap < capacity do
    cap := 2 * !cap
  done;
  let cap = !cap in
  {
    dupthresh;
    cost;
    trace;
    first_sent = Array.make cap 0.0;
    last_sent = Array.make cap 0.0;
    meta = Array.make cap 0;
    mask = cap - 1;
    una_abs = 0;
    nxt_abs = 0;
    snd_una = Serial.zero;
    snd_nxt = Serial.zero;
    sacked = Runs.create ();
    lost = Runs.create ();
    unsacked_bytes = 0;
    sent = 0;
    retx = 0;
    acked = 0;
    scr_lo = Array.make 8 0;
    scr_hi = Array.make 8 0;
    cov_key = Array.make 8 0;
    cov_sent = Array.make 8 0.0;
    ncov = 0;
    nacked = 0;
    lost_pos = Array.make 8 0;
    nlost = 0;
    cum_advanced = false;
  }

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let[@vtp.hot] abs_of t s = t.una_abs + Serial.diff s t.snd_una

let ser_of t a = Serial.add t.snd_una (a - t.una_abs)

let grow t =
  let ncap = 2 * (t.mask + 1) in
  let nmask = ncap - 1 in
  let nfs = Array.make ncap 0.0
  and nls = Array.make ncap 0.0
  and nmeta = Array.make ncap 0 in
  for a = t.una_abs to t.nxt_abs - 1 do
    nfs.(a land nmask) <- t.first_sent.(a land t.mask);
    nls.(a land nmask) <- t.last_sent.(a land t.mask);
    nmeta.(a land nmask) <- t.meta.(a land t.mask)
  done;
  t.first_sent <- nfs;
  t.last_sent <- nls;
  t.meta <- nmeta;
  t.mask <- nmask

let[@vtp.hot] on_send t ~seq ~now ~size ~is_retx =
  charge t "send.scoreboard.send";
  if is_retx then begin
    let a = abs_of t seq in
    if a < t.una_abs || a >= t.nxt_abs then
      invalid_arg "Scoreboard.on_send: retransmit of unknown seq";
    let i = a land t.mask in
    t.last_sent.(i) <- now;
    t.meta.(i) <- t.meta.(i) + (1 lsl retx_shift);
    Runs.remove t.lost a (a + 1);
    t.retx <- t.retx + 1;
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Retransmit { seq; count = t.meta.(i) lsr retx_shift })
  end
  else begin
    if not (Serial.equal seq t.snd_nxt) then
      invalid_arg "Scoreboard.on_send: new data out of order";
    if t.nxt_abs - t.una_abs > t.mask then grow t;
    (* [i <= mask < length] by construction, so the masked ring writes
       need no bounds checks — this is the per-packet fast path. *)
    let i = t.nxt_abs land t.mask in
    Array.unsafe_set t.first_sent i now;
    Array.unsafe_set t.last_sent i now;
    Array.unsafe_set t.meta i (size land size_mask);
    t.nxt_abs <- t.nxt_abs + 1;
    t.snd_nxt <- Serial.succ seq;
    t.sent <- t.sent + 1;
    t.unsacked_bytes <- t.unsacked_bytes + size
  end;
  match t.cost with
  | Some c ->
      Stats.Cost.watermark c "send.scoreboard.entries" (t.nxt_abs - t.una_abs)
  | None -> ()

let next_seq t = t.snd_nxt

let una t = t.snd_una

let size_at t a = t.meta.(a land t.mask) land size_mask

(* The staged feedback digest.  One call walks the [sacked]/[lost] runs
   with [Runs.fold_gaps] and closed top-level visitors (no closures, no
   refs, no result record) and stages what it uncovered in the
   scoreboard's scratch arrays, which the caller then reads by index:

   - covers [0, fb_acked) are the cumulative-ack covers and covers
     [fb_acked, fb_acked + fb_sacked) the fresh SACK covers, each
     ascending.  Every cumulative-ack cover lies below the advanced
     [una_abs] and every SACK cover at or above it, and blocks are
     processed in ascending order of clipped lower bound (a block merges
     into the run set before the next is scanned, so a later block can
     only uncover positions above everything an earlier one staged), so
     the whole cover stage is globally ascending;
   - losses [0, fb_lost) are the fresh dupthresh inferences, ascending.

   A cover is staged by value (position and retransmit flag packed in
   one int, first send time in a float array), so it stays readable even
   if the ring is overwritten or regrown before the caller gets to it. *)

let[@inline] cover_key a ~retx = (a lsl 1) lor if retx then 1 else 0

let grow_floats a n =
  let b = Array.make (Stdlib.max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_scr t n =
  if n > Array.length t.scr_lo then begin
    t.scr_lo <- grow_ints t.scr_lo n;
    t.scr_hi <- grow_ints t.scr_hi n
  end

(* Stage the (unsacked) positions of a gap [a, h) as covers. *)
let stage_covers t a h () =
  let n = t.ncov + (h - a) in
  if n > Array.length t.cov_key then begin
    t.cov_key <- grow_ints t.cov_key n;
    t.cov_sent <- grow_floats t.cov_sent n
  end;
  for p = a to h - 1 do
    let i = p land t.mask in
    let meta = Array.unsafe_get t.meta i in
    let k = t.ncov + (p - a) in
    t.unsacked_bytes <- t.unsacked_bytes - (meta land size_mask);
    Array.unsafe_set t.cov_key k (cover_key p ~retx:(meta lsr retx_shift > 0));
    Array.unsafe_set t.cov_sent k (Array.unsafe_get t.first_sent i)
  done;
  t.ncov <- n

(* Insert the clipped blocks into the scratch runs by lower bound
   (stable insertion sort; real feedback carries a handful of blocks);
   returns how many are staged. *)
let rec clip_blocks t (blocks : Blocks.t list) n =
  match blocks with
  | [] -> n
  | b :: rest ->
      let l = Stdlib.max (abs_of t b.block_start) t.una_abs in
      let h = Stdlib.min (abs_of t b.block_end) t.nxt_abs in
      if l < h then begin
        ensure_scr t (n + 1);
        let j = ref n in
        while !j > 0 && t.scr_lo.(!j - 1) > l do
          t.scr_lo.(!j) <- t.scr_lo.(!j - 1);
          t.scr_hi.(!j) <- t.scr_hi.(!j - 1);
          decr j
        done;
        t.scr_lo.(!j) <- l;
        t.scr_hi.(!j) <- h;
        clip_blocks t rest (n + 1)
      end
      else clip_blocks t rest n

(* Append the run [a, h) to the scratch runs holding [n]. *)
let push_scr t a h n =
  ensure_scr t (n + 1);
  Array.unsafe_set t.scr_lo n a;
  Array.unsafe_set t.scr_hi n h;
  n + 1

(* Within an unsacked gap, the sub-ranges not yet lost are fresh. *)
let push_unlost t a h n = Runs.fold_gaps t.lost a h push_scr t n

(* Stage positions [a, h) as fresh losses. *)
let stage_losses t a h =
  let n = t.nlost + (h - a) in
  if n > Array.length t.lost_pos then t.lost_pos <- grow_ints t.lost_pos n;
  for p = a to h - 1 do
    Array.unsafe_set t.lost_pos (t.nlost + (p - a)) p
  done;
  t.nlost <- n

let[@vtp.hot] digest t ~cum_ack ~blocks =
  charge t "send.scoreboard.feedback";
  t.ncov <- 0;
  t.nlost <- 0;
  (* 1. Cumulative advance: every not-yet-SACKed position up to the
     (clipped) ack point is a fresh cover. *)
  t.cum_advanced <- Serial.( > ) cum_ack t.snd_una;
  if t.cum_advanced then begin
    let target = Stdlib.min (abs_of t cum_ack) t.nxt_abs in
    Runs.fold_gaps t.sacked t.una_abs target stage_covers t ();
    t.acked <- t.acked + (target - t.una_abs);
    Runs.trim_below t.sacked target;
    Runs.trim_below t.lost target;
    t.una_abs <- target;
    t.snd_una <- Serial.max t.snd_una (Serial.min cum_ack t.snd_nxt)
  end;
  t.nacked <- t.ncov;
  (* 2. SACK coverage: the uncovered gaps of each (clipped) block are
     the newly SACKed positions; then the block merges into the run
     set in one splice. *)
  let nclip = clip_blocks t blocks 0 in
  for k = 0 to nclip - 1 do
    let l = t.scr_lo.(k) and h = t.scr_hi.(k) in
    Runs.fold_gaps t.sacked l h stage_covers t ();
    Runs.remove t.lost l h;
    Runs.add t.sacked l h
  done;
  (* 3. Loss inference: a position is lost once [dupthresh] SACKed
     positions lie above it, i.e. everything below the dupthresh-th
     highest SACKed point that is neither SACKed nor already lost.
     The fresh runs reuse the scratch runs (phase 2 is done with them),
     collected in ascending order. *)
  let p = Runs.kth_from_top t.sacked t.dupthresh in
  if p > t.una_abs then begin
    let nfresh = Runs.fold_gaps t.sacked t.una_abs p push_unlost t 0 in
    for k = 0 to nfresh - 1 do
      let l = t.scr_lo.(k) and h = t.scr_hi.(k) in
      Runs.add t.lost l h;
      stage_losses t l h
    done;
    (* The reference walk marks from the top down; emit in the same
       descending order so traces stay byte-identical. *)
    if Trace.Sink.on t.trace then
      for k = nfresh - 1 downto 0 do
        for a = t.scr_hi.(k) - 1 downto t.scr_lo.(k) do
          Trace.Sink.emit t.trace
            (Trace.Event.Loss_inferred
               { seq = ser_of t a; by = Trace.Event.I_dupthresh })
        done
      done
  end

let fb_acked t = t.nacked
let fb_sacked t = t.ncov - t.nacked
let fb_covers t = t.ncov
let fb_lost t = t.nlost
let fb_cum_advanced t = t.cum_advanced

let check_index n k what =
  if k < 0 || k >= n then invalid_arg ("Scoreboard." ^ what ^ ": index")

let cover_seq t k =
  check_index t.ncov k "cover_seq";
  ser_of t (Array.unsafe_get t.cov_key k lsr 1)

let cover_sent_at t k =
  check_index t.ncov k "cover_sent_at";
  Array.unsafe_get t.cov_sent k

let cover_was_retx t k =
  check_index t.ncov k "cover_was_retx";
  Array.unsafe_get t.cov_key k land 1 = 1

let lost_seq t k =
  check_index t.nlost k "lost_seq";
  ser_of t (Array.unsafe_get t.lost_pos k)

let lost_pending t =
  let acc = ref [] in
  for i = t.lost.Runs.len - 1 downto 0 do
    for a = t.lost.Runs.hi.(i) - 1 downto t.lost.Runs.lo.(i) do
      acc := ser_of t a :: !acc
    done
  done;
  !acc

let mark_expired t ~now ~timeout =
  (* The expired positions go through the feedback scratch (ascending). *)
  let expire t a h n =
    let n = ref n in
    for a = a to h - 1 do
      if now -. t.last_sent.(a land t.mask) > timeout then begin
        ensure_scr t (!n + 1);
        t.scr_lo.(!n) <- a;
        incr n;
        if Trace.Sink.on t.trace then
          Trace.Sink.emit t.trace
            (Trace.Event.Loss_inferred
               { seq = ser_of t a; by = Trace.Event.I_timeout })
      end
    done;
    !n
  in
  let nfresh =
    Runs.fold_gaps t.sacked t.una_abs t.nxt_abs
      (fun t a h n -> Runs.fold_gaps t.lost a h expire t n)
      t 0
  in
  let acc = ref [] in
  for k = nfresh - 1 downto 0 do
    let a = t.scr_lo.(k) in
    Runs.add t.lost a (a + 1);
    acc := ser_of t a :: !acc
  done;
  !acc

let drop_unsacked t a h () =
  for p = a to h - 1 do
    t.unsacked_bytes <- t.unsacked_bytes - size_at t p
  done

let abandon_below t limit =
  let limit = Serial.min limit t.snd_nxt in
  if Serial.( > ) limit t.snd_una then begin
    let target = Stdlib.min (abs_of t limit) t.nxt_abs in
    Runs.fold_gaps t.sacked t.una_abs target drop_unsacked t ();
    Runs.trim_below t.sacked target;
    Runs.trim_below t.lost target;
    t.una_abs <- target;
    t.snd_una <- limit
  end

let tracked t a = a >= t.una_abs && a < t.nxt_abs

let retx_count t s =
  let a = abs_of t s in
  if tracked t a then t.meta.(a land t.mask) lsr retx_shift else 0

let status t s =
  let a = abs_of t s in
  if not (tracked t a) then `Untracked
  else if Runs.mem t.sacked a then `Sacked
  else if Runs.mem t.lost a then `Lost
  else `In_flight

let first_sent_at t s =
  let a = abs_of t s in
  if tracked t a then Some t.first_sent.(a land t.mask) else None

let outstanding t = t.nxt_abs - t.una_abs

let in_flight_bytes t = t.unsacked_bytes

let runs_held t = (t.sacked.Runs.len, t.lost.Runs.len)

let stats_sent t = t.sent
let stats_retx t = t.retx
let stats_acked t = t.acked
