module Serial = Packet.Serial

(* Buffered segments are held in sorted parallel int arrays, live in
   [b_fst, b_len): absolute positions (ascending) and sizes.  Positions
   are anchored at the next expected number, [abs = next_abs +
   Serial.diff seq next], the scheme of [Rcv_tracker].  The in-order
   head leaves from the front by advancing [b_fst], arrivals beyond the
   newest buffered one append at the back, and a forward point releases
   a prefix — so memory and work follow the buffered entries, never the
   width of a sequence jump, and steady-state operation allocates
   nothing. *)

type t = {
  cost : Stats.Cost.t option;
  deliver : seq:Serial.t -> size:int -> unit;
  on_gap : skipped:int -> unit;
  mutable b_pos : int array;
  mutable b_size : int array;
  mutable b_fst : int;
  mutable b_len : int;
  mutable next : Serial.t;
  mutable next_abs : int;
  mutable delivered : int;
  mutable skipped : int;
}

let create ?cost ~deliver ~on_gap () =
  {
    cost;
    deliver;
    on_gap;
    b_pos = Array.make 16 0;
    b_size = Array.make 16 0;
    b_fst = 0;
    b_len = 0;
    next = Serial.zero;
    next_abs = 0;
    delivered = 0;
    skipped = 0;
  }

let charge t name =
  match t.cost with Some c -> Stats.Cost.charge c name | None -> ()

let buffered t = t.b_len - t.b_fst

(* Make room for one more entry at the back. *)
let reserve t =
  let cap = Array.length t.b_pos in
  if t.b_len = cap then begin
    let live = t.b_len - t.b_fst in
    if t.b_fst > 0 then begin
      Array.blit t.b_pos t.b_fst t.b_pos 0 live;
      Array.blit t.b_size t.b_fst t.b_size 0 live
    end
    else begin
      let npos = Array.make (2 * cap) 0 and nsize = Array.make (2 * cap) 0 in
      Array.blit t.b_pos 0 npos 0 live;
      Array.blit t.b_size 0 nsize 0 live;
      t.b_pos <- npos;
      t.b_size <- nsize
    end;
    t.b_fst <- 0;
    t.b_len <- live
  end

(* Smallest live index whose position is >= [pos]. *)
let rec seek t pos lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get t.b_pos mid >= pos then seek t pos lo mid
    else seek t pos (mid + 1) hi

(* Buffer [size] at [pos] (> next_abs); a duplicate is dropped. *)
let insert t pos size =
  if t.b_fst = t.b_len || t.b_pos.(t.b_len - 1) < pos then begin
    reserve t;
    t.b_pos.(t.b_len) <- pos;
    t.b_size.(t.b_len) <- size;
    t.b_len <- t.b_len + 1
  end
  else begin
    let i = seek t pos t.b_fst t.b_len in
    if t.b_pos.(i) <> pos then begin
      reserve t;
      let i = seek t pos t.b_fst t.b_len in
      Array.blit t.b_pos i t.b_pos (i + 1) (t.b_len - i);
      Array.blit t.b_size i t.b_size (i + 1) (t.b_len - i);
      t.b_pos.(i) <- pos;
      t.b_size.(i) <- size;
      t.b_len <- t.b_len + 1
    end
  end

(* Pop the front entry, keeping the arrays compact when they empty. *)
let[@inline] pop_front t =
  t.b_fst <- t.b_fst + 1;
  if t.b_fst = t.b_len then begin
    t.b_fst <- 0;
    t.b_len <- 0
  end

let[@inline] deliver_next t size =
  t.deliver ~seq:t.next ~size;
  t.delivered <- t.delivered + 1;
  t.next <- Serial.succ t.next;
  t.next_abs <- t.next_abs + 1

let[@vtp.hot] drain t =
  while t.b_fst < t.b_len && Array.unsafe_get t.b_pos t.b_fst = t.next_abs do
    let size = Array.unsafe_get t.b_size t.b_fst in
    pop_front t;
    deliver_next t size
  done

let[@vtp.hot] on_data t ~seq ~size =
  charge t "recv.reassembly";
  let off = Serial.diff seq t.next in
  (* [next] itself is never buffered: every advance drains. *)
  if off = 0 then begin
    deliver_next t size;
    drain t
  end
  else if off > 0 then insert t (t.next_abs + off) size;
  match t.cost with
  | Some c -> Stats.Cost.watermark c "recv.reassembly.buffered" (buffered t)
  | None -> ()

(* Abandon [next, fwd): buffered entries inside are delivered in order,
   every other number counts as skipped. *)
let[@vtp.hot] apply_fwd_point t fwd =
  if Serial.( > ) fwd t.next then begin
    let width = Serial.diff fwd t.next in
    let target = t.next_abs + width in
    let before = t.delivered in
    while t.b_fst < t.b_len && Array.unsafe_get t.b_pos t.b_fst < target do
      let pos = Array.unsafe_get t.b_pos t.b_fst
      and size = Array.unsafe_get t.b_size t.b_fst in
      pop_front t;
      t.deliver ~seq:(Serial.add t.next (pos - t.next_abs)) ~size;
      t.delivered <- t.delivered + 1
    done;
    let gap = width - (t.delivered - before) in
    t.skipped <- t.skipped + gap;
    t.next <- fwd;
    t.next_abs <- target;
    if gap > 0 then t.on_gap ~skipped:gap;
    drain t
  end

let next_expected t = t.next

let delivered t = t.delivered

let skipped t = t.skipped
