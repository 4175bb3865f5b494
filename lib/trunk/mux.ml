type config = {
  users : int;
  discipline : Sched.kind;
  quantum : int;
  frame_cap : int;
  per_user_cap : int;
  audit : bool;
}

let config ?(discipline = Sched.Drr) ?(quantum = Sched.default_quantum)
    ?(frame_cap = Frame.default_frame_cap) ?(per_user_cap = 65536)
    ?(audit = true) ~users () =
  if users < 1 || users > Frame.max_user + 1 then
    invalid_arg "Trunk.Mux: users out of range";
  if quantum < 1 then invalid_arg "Trunk.Mux: quantum < 1";
  if frame_cap < 1 || frame_cap > Frame.max_len then
    invalid_arg "Trunk.Mux: frame_cap out of range";
  if per_user_cap < 1 then invalid_arg "Trunk.Mux: per_user_cap < 1";
  { users; discipline; quantum; frame_cap; per_user_cap; audit }

(* Conservation digests: a chunk-invariant running hash of one user's
   byte stream at a station.  Bytes gather little-endian into a pending
   word; every full 8-byte word folds djb2-style into the accumulator.
   The fold is a pure function of the byte stream — slice boundaries
   never matter, so the three stations digest identical streams to
   identical values even though admission hashes 4 KiB offers, shipping
   hashes sub-frame takes and delivery hashes parsed frames.  Word-at-
   a-time keeps the bookkeeping to a fraction of the segment path's
   copy cost (a per-byte fold costed more than the blits it audited). *)
module Dig = struct
  type t = {
    acc : int array;  (* folded whole words *)
    pend : int array;  (* gathered tail bytes, little-endian *)
    pk : int array;  (* how many tail bytes are gathered, 0..7 *)
  }

  let seed = 5381

  let create n =
    { acc = Array.make n seed; pend = Array.make n 0; pk = Array.make n 0 }

  let mix acc w = (((acc lsl 5) + acc) lxor w) land max_int

  (* The 8 bytes at [i], little-endian, folded into an int (the top bit
     drops, as it always has: the fold masks to [max_int]). *)
  let word buf i = Int64.to_int (Bytes.get_int64_le buf i)

  let update d u buf ~pos ~len =
    let acc = ref d.acc.(u) in
    let pend = ref d.pend.(u) in
    let pk = ref d.pk.(u) in
    let i = ref pos in
    let stop = pos + len in
    while !pk <> 0 && !i < stop do
      pend := !pend lor (Char.code (Bytes.unsafe_get buf !i) lsl (8 * !pk));
      incr i;
      pk := (!pk + 1) land 7;
      if !pk = 0 then begin
        acc := mix !acc !pend;
        pend := 0
      end
    done;
    while stop - !i >= 8 do
      acc := mix !acc (word buf !i);
      i := !i + 8
    done;
    while !i < stop do
      pend := !pend lor (Char.code (Bytes.unsafe_get buf !i) lsl (8 * !pk));
      incr i;
      incr pk
    done;
    d.acc.(u) <- !acc;
    d.pend.(u) <- !pend;
    d.pk.(u) <- !pk

  (* Finalised view: equal streams give equal values; the tail state is
     folded in so "abc" and "abc" + pending junk can't collide by
     accident of timing. *)
  let value d u = mix (mix d.acc.(u) d.pend.(u)) d.pk.(u)
end

(* Per-user admission queue: a compacting byte FIFO.  Bytes.blit is
   memmove-safe, so compaction within the same buffer is fine. *)
module Q = struct
  type t = { mutable buf : Bytes.t; mutable head : int; mutable len : int }

  let create () = { buf = Bytes.create 256; head = 0; len = 0 }

  let length q = q.len

  let ensure q extra =
    let need = q.len + extra in
    if q.head + need > Bytes.length q.buf then
      if need <= Bytes.length q.buf then begin
        Bytes.blit q.buf q.head q.buf 0 q.len;
        q.head <- 0
      end
      else begin
        let cap = ref (Bytes.length q.buf) in
        while !cap < need do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit q.buf q.head nb 0 q.len;
        q.buf <- nb;
        q.head <- 0
      end

  let append q src pos len =
    ensure q len;
    Bytes.blit src pos q.buf (q.head + q.len) len;
    q.len <- q.len + len

  let pop_into q dst ~pos ~len =
    Bytes.blit q.buf q.head dst pos len;
    q.head <- q.head + len;
    q.len <- q.len - len;
    if q.len = 0 then q.head <- 0
end

type t = {
  cfg : config;
  sched : Sched.t;
  queues : Q.t array;
  src : Qtp.Source.t;
  mutable conn : Qtp.Connection.t option;
  mutable seg_payload : int;  (* 0 until attached *)
  admitted : int array;
  shipped : int array;
  delivered : int array;
  adm_dig : Dig.t;
  shp_dig : Dig.t;
  dlv_dig : Dig.t;
  (* The undelivered segments [seg_base, nsegs), the k-th at ring slot
     [k land (length - 1)] with its packed byte count.  Buffers are
     sized for the full budget so pack writes in place.  Reassembly
     delivers in sequence order, so delivering k retires every segment
     up to k (those below it were abandoned and never will be). *)
  mutable segs : Bytes.t array;
  mutable seg_lens : int array;
  mutable seg_base : int;
  mutable nsegs : int;
  (* Retired segment buffers, recycled by [pack]: a buffer is only lent
     to [on_data] for the duration of the call, so once a segment's
     callbacks return its bytes are dead. *)
  mutable free : Bytes.t array;
  mutable nfree : int;
  (* The segment [pack] is filling and the one [deliver] is parsing,
     read by the per-frame callbacks below. *)
  mutable pk_buf : Bytes.t;
  mutable pk_pos : int;
  mutable pk_frames : int;
  mutable dv_buf : Bytes.t;
  (* [Sched.fill] / [Frame.iter] callbacks, built once *)
  on_take : user:int -> take:int -> unit;
  on_frame : user:int -> off:int -> len:int -> unit;
  on_junk : bytes:int -> unit;
  mutable rejected : int;
  mutable frames_packed : int;
  mutable junk : int;
  mutable on_data : (user:int -> buf:Bytes.t -> pos:int -> len:int -> unit) option;
}

(* One scheduler allocation: a sub-frame of [take] bytes of [user]'s
   queue, appended to the segment being packed. *)
let pack_frame t ~user ~take =
  let buf = t.pk_buf in
  Frame.put_header buf ~pos:t.pk_pos ~user ~len:take;
  let ppos = t.pk_pos + Frame.header_bytes in
  Q.pop_into t.queues.(user) buf ~pos:ppos ~len:take;
  t.shipped.(user) <- t.shipped.(user) + take;
  if t.cfg.audit then Dig.update t.shp_dig user buf ~pos:ppos ~len:take;
  t.pk_pos <- ppos + take;
  t.pk_frames <- t.pk_frames + 1

let deliver_frame t ~user ~off ~len =
  t.delivered.(user) <- t.delivered.(user) + len;
  if t.cfg.audit then Dig.update t.dlv_dig user t.dv_buf ~pos:off ~len;
  match t.on_data with
  | Some f -> f ~user ~buf:t.dv_buf ~pos:off ~len
  | None -> ()

(* Double the segment ring, keeping each live segment at its slot under
   the new mask. *)
let grow_segs t =
  let n = 2 * Array.length t.segs in
  let nb = Array.make n Bytes.empty and nl = Array.make n 0 in
  for k = t.seg_base to t.nsegs - 1 do
    nb.(k land (n - 1)) <- t.segs.(k land (n / 2 - 1));
    nl.(k land (n - 1)) <- t.seg_lens.(k land (n / 2 - 1))
  done;
  t.segs <- nb;
  t.seg_lens <- nl

let recycle t buf =
  if t.nfree = Array.length t.free then begin
    let nf = Array.make (2 * t.nfree) Bytes.empty in
    Array.blit t.free 0 nf 0 t.nfree;
    t.free <- nf
  end;
  t.free.(t.nfree) <- buf;
  t.nfree <- t.nfree + 1

let[@vtp.hot] pack t =
  if t.seg_payload = 0 || Sched.total t.sched = 0 then false
  else begin
    let budget = t.seg_payload in
    (* a buffer recycled before a re-[attach] may be too short *)
    let buf =
      if t.nfree > 0 && Bytes.length t.free.(t.nfree - 1) >= budget then begin
        t.nfree <- t.nfree - 1;
        t.free.(t.nfree)
      end
      else Bytes.create budget
    in
    t.pk_buf <- buf;
    t.pk_pos <- 0;
    t.pk_frames <- 0;
    let used =
      Sched.fill t.sched ~budget ~overhead:Frame.header_bytes
        ~cap:t.cfg.frame_cap ~f:t.on_take
    in
    t.pk_buf <- Bytes.empty;
    if used = 0 then begin
      recycle t buf;
      false
    end
    else begin
      let k = t.nsegs in
      if k - t.seg_base = Array.length t.segs then grow_segs t;
      let i = k land (Array.length t.segs - 1) in
      t.segs.(i) <- buf;
      t.seg_lens.(i) <- used;
      t.nsegs <- k + 1;
      t.frames_packed <- t.frames_packed + t.pk_frames;
      true
    end
  end

let[@vtp.hot] deliver t ~seq =
  let k = Packet.Serial.to_int seq in
  if k >= t.seg_base && k < t.nsegs then begin
    let mask = Array.length t.segs - 1 in
    let seg = t.segs.(k land mask) in
    t.dv_buf <- seg;
    Frame.iter seg ~pos:0 ~len:t.seg_lens.(k land mask) ~frame:t.on_frame
      ~junk:t.on_junk;
    t.dv_buf <- Bytes.empty;
    (* Exactly-once: retiring the segments also makes any accounting
       bug loud instead of a silent double count. *)
    for j = t.seg_base to k do
      recycle t t.segs.(j land mask);
      t.segs.(j land mask) <- Bytes.empty
    done;
    t.seg_base <- k + 1
  end

let create ?weights cfg =
  let t_ref = ref None in
  let src =
    Qtp.Source.pull
      ~take:(fun () -> match !t_ref with Some t -> pack t | None -> false)
      ()
  in
  let rec t =
    {
      cfg;
      sched =
        Sched.create ~quantum:cfg.quantum ?weights cfg.discipline
          ~users:cfg.users ();
      queues = Array.init cfg.users (fun _ -> Q.create ());
      src;
      conn = None;
      seg_payload = 0;
      admitted = Array.make cfg.users 0;
      shipped = Array.make cfg.users 0;
      delivered = Array.make cfg.users 0;
      adm_dig = Dig.create cfg.users;
      shp_dig = Dig.create cfg.users;
      dlv_dig = Dig.create cfg.users;
      segs = Array.make 64 Bytes.empty;
      seg_lens = Array.make 64 0;
      seg_base = 0;
      nsegs = 0;
      free = Array.make 64 Bytes.empty;
      nfree = 0;
      pk_buf = Bytes.empty;
      pk_pos = 0;
      pk_frames = 0;
      dv_buf = Bytes.empty;
      on_take = (fun ~user ~take -> pack_frame t ~user ~take);
      on_frame = (fun ~user ~off ~len -> deliver_frame t ~user ~off ~len);
      on_junk = (fun ~bytes -> t.junk <- t.junk + bytes);
      rejected = 0;
      frames_packed = 0;
      junk = 0;
      on_data = None;
    }
  in
  t_ref := Some t;
  t

let source t = t.src

let attach t ~conn ~seg_payload =
  if seg_payload <= Frame.header_bytes then
    invalid_arg "Trunk.Mux.attach: seg_payload must exceed frame header";
  t.seg_payload <- Stdlib.min seg_payload (Bytes.length (Frame.scratch ()));
  t.conn <- Some conn;
  Qtp.Connection.set_on_deliver conn (fun ~seq ~size:_ -> deliver t ~seq)

let connection t = t.conn

let admit t ~user ~src ~pos ~len =
  if user < 0 || user >= t.cfg.users then
    invalid_arg "Trunk.Mux.admit: user out of range";
  if len < 0 || pos < 0 || pos + len > Bytes.length src then
    invalid_arg "Trunk.Mux.admit: bad slice";
  let space = t.cfg.per_user_cap - Q.length t.queues.(user) in
  let acc = Stdlib.min len (Stdlib.max 0 space) in
  if acc > 0 then begin
    Q.append t.queues.(user) src pos acc;
    t.admitted.(user) <- t.admitted.(user) + acc;
    if t.cfg.audit then Dig.update t.adm_dig user src ~pos ~len:acc;
    Sched.enqueue t.sched ~user acc;
    Qtp.Source.wake t.src
  end;
  t.rejected <- t.rejected + (len - acc);
  acc

let set_on_data t f = t.on_data <- Some f

let feed t ~sim ~workloads ?(chunk = 4096) ?(period = 0.05) ?(seed = 0)
    ~stop_at () =
  if Array.length workloads > t.cfg.users then
    invalid_arg "Trunk.Mux.feed: more workloads than users";
  if chunk < 1 || period <= 0.0 then invalid_arg "Trunk.Mux.feed";
  let n = Array.length workloads in
  let sent = Array.make t.cfg.users 0 in
  let scratch = Bytes.create chunk in
  let rec tick () =
    if Engine.Sim.now sim < stop_at then begin
      let pending = ref false in
      for u = 0 to n - 1 do
        let remaining = workloads.(u) - sent.(u) in
        if remaining > 0 then begin
          (* Only render the bytes admission has room for — a
             backpressured user would otherwise regenerate (and then
             discard) a full chunk every tick. *)
          let space = t.cfg.per_user_cap - Q.length t.queues.(u) in
          let want = Stdlib.min (Stdlib.min chunk remaining) space in
          if want > 0 then begin
            (* Byte o of user u's stream is (seed + u*131 + o*31) mod 256;
               stepping the accumulator by 31 keeps the render loop free
               of per-byte multiplies. *)
            let b = ref (seed + (u * 131) + (sent.(u) * 31)) in
            for i = 0 to want - 1 do
              Bytes.unsafe_set scratch i (Char.unsafe_chr (!b land 0xff));
              b := !b + 31
            done;
            let acc = admit t ~user:u ~src:scratch ~pos:0 ~len:want in
            sent.(u) <- sent.(u) + acc
          end;
          if sent.(u) < workloads.(u) then pending := true
        end
      done;
      if !pending then Engine.Sim.post_after sim period tick
    end
  in
  Engine.Sim.post_after sim 0.0 tick;
  sent

let users t = t.cfg.users

let backlog t = Sched.total t.sched

let backlog_user t ~user = Q.length t.queues.(user)

let admitted_bytes t ~user = t.admitted.(user)

let shipped_bytes t ~user = t.shipped.(user)

let delivered_bytes t ~user = t.delivered.(user)

let admit_digest t ~user = Dig.value t.adm_dig user

let ship_digest t ~user = Dig.value t.shp_dig user

let deliver_digest t ~user = Dig.value t.dlv_dig user

let delivered_per_user t = Array.map float_of_int t.delivered

let segments_packed t = t.nsegs

let frames_packed t = t.frames_packed

let rejected t = t.rejected

let junk_bytes t = t.junk

let check_conservation t =
  let r = ref (Ok ()) in
  for u = t.cfg.users - 1 downto 0 do
    let adm = Dig.value t.adm_dig u
    and shp = Dig.value t.shp_dig u
    and dlv = Dig.value t.dlv_dig u in
    if t.delivered.(u) <> t.shipped.(u) || dlv <> shp then
      r :=
        Error
          (Printf.sprintf
             "user %d: shipped %dB digest %x but delivered %dB digest %x" u
             t.shipped.(u) shp t.delivered.(u) dlv)
    else if
      Q.length t.queues.(u) = 0
      && (t.admitted.(u) <> t.shipped.(u) || adm <> shp)
    then
      r :=
        Error
          (Printf.sprintf
             "user %d: drained queue but admitted %dB digest %x vs shipped \
              %dB digest %x"
             u t.admitted.(u) adm t.shipped.(u) shp)
  done;
  if t.junk > 0 && Result.is_ok !r then
    r := Error (Printf.sprintf "parser skipped %d junk bytes" t.junk);
  !r
