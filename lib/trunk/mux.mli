(** The trunk multiplexer: N user micro-flows over ONE gTFRC-controlled
    connection (TCP-trunking, Kung & Wang, applied to VTP).

    Instead of opening a congestion-controlled connection per user — at
    which point short flows never leave slow start and the negotiated
    AF floor [g] fragments into per-flow crumbs — a trunk front-ends
    the users: bytes are admitted into per-user queues, an intra-trunk
    scheduler ({!Sched}) packs them into length-prefixed sub-frames
    ({!Frame}) batched into each trunk segment, and the single
    underlying {!Qtp.Connection} (typically QTP_AF with full
    reliability) carries the aggregate at the negotiated rate.  On the
    receiving side, segments are demultiplexed back into per-user
    streams in admission order.

    {2 Data path}

    The simulator moves no payload bytes on the wire, so the trunk
    carries user bytes out-of-band alongside the simulated connection:
    the k-th segment packed by a successful source [take] corresponds
    exactly to the k-th fresh wire sequence (retransmissions re-send a
    recorded segment; the handshake consumes no takes).  The sender
    stores each packed segment; {!Qtp.Connection.set_on_deliver}
    surfaces the in-order delivery of sequence k, at which point the
    stored bytes are parsed with {!Frame.iter} and handed to the
    per-user delivery callback, exactly once.  The delivered segment's
    buffer then goes back to a free list that the next pack draws from,
    so in steady state the segment path allocates nothing.

    Under full reliability every packed byte is eventually delivered,
    byte-identical — the conservation oracle checks the per-user byte
    counts and running digests at three stations (admitted, shipped,
    delivered). *)

type config = {
  users : int;
  discipline : Sched.kind;
  quantum : int;  (** DRR byte quantum (unit weight) *)
  frame_cap : int;  (** max user payload bytes per sub-frame *)
  per_user_cap : int;  (** admission queue bound per user, bytes *)
  audit : bool;  (** maintain per-station conservation digests *)
}

val config :
  ?discipline:Sched.kind ->
  ?quantum:int ->
  ?frame_cap:int ->
  ?per_user_cap:int ->
  ?audit:bool ->
  users:int ->
  unit ->
  config
(** Defaults: [Drr], {!Sched.default_quantum}, {!Frame.default_frame_cap},
    64 KiB per-user cap, [audit] on.  Raises [Invalid_argument] on
    out-of-range values ([users] within {!Frame.max_user}, [frame_cap]
    within {!Frame.max_len}).

    [audit] keeps the three per-user station digests (admitted /
    shipped / delivered) up to date so {!check_conservation} can verify
    byte-identical delivery; tests and the fuzz band run with it on.
    Like the experiments' unchecked-by-default invariant mode, raw
    benchmarks may turn it off: the digest passes audit the trunk
    rather than operate it, and the per-flow arm being priced against
    carries no payload bytes at all.  With [audit = false] the byte
    {e counts} are still tracked and checked. *)

type t

val create : ?weights:int array -> config -> t
(** Build the mux and its pull {!Qtp.Source.t}.  [weights] scales DRR
    quanta per user (missing / [< 1] entries count as 1). *)

val source : t -> Qtp.Source.t
(** The source to hand to {!Qtp.Connection.create} — the trunk packs a
    segment on demand at each transmission opportunity. *)

val attach : t -> conn:Qtp.Connection.t -> seg_payload:int -> unit
(** Bind the mux to its connection: sets the per-segment payload budget
    (the connection's [packet_size - data-header bytes], clipped to
    {!Frame.max_segment_payload}) and installs the delivery tap.
    Raises [Invalid_argument] if [seg_payload] is not strictly larger
    than {!Frame.header_bytes}. *)

val connection : t -> Qtp.Connection.t option

val deliver : t -> seq:Packet.Serial.t -> unit
(** Deliver the segment packed as wire sequence [seq] — the delivery tap
    {!attach} installs, exposed so a test can drive the segment path
    without a connection.  Sequences must arrive in increasing order:
    delivering [seq] retires every segment up to it, and a sequence
    already retired is ignored. *)

val admit : t -> user:int -> src:Bytes.t -> pos:int -> len:int -> int
(** Offer [len] bytes from a user; returns how many were accepted
    (clipped to the user's remaining [per_user_cap] space — the rest is
    counted in {!rejected} and the caller may retry later).  Accepted
    bytes join the user's queue, the scheduler backlog, and the
    admitted digest; the connection is woken. *)

val set_on_data : t -> (user:int -> buf:Bytes.t -> pos:int -> len:int -> unit) -> unit
(** Per-user delivery callback: [buf.[pos .. pos+len)] is the delivered
    sub-frame payload (read-only; valid only during the call — the
    segment buffer is recycled for a later segment once the callbacks
    return, so a callback that keeps [buf] sees it overwritten). *)

val feed :
  t ->
  sim:Engine.Sim.t ->
  workloads:int array ->
  ?chunk:int ->
  ?period:float ->
  ?seed:int ->
  stop_at:float ->
  unit ->
  int array
(** Drive the trunk from deterministic synthetic workloads:
    [workloads.(u)] total bytes for user [u], admitted in [chunk]-byte
    (default 4096) offers every [period] seconds (default 0.05),
    respecting admission backpressure, until each workload is fully
    admitted or the simulation passes [stop_at].  Byte at offset [o] of
    user [u] is [(seed + u*131 + o*31) land 0xff], so content is a pure
    function of (seed, user, offset) — digests are reproducible.
    Returns the live per-user admitted-so-far array. *)

(** {2 Accounting} *)

val users : t -> int

val backlog : t -> int
(** Total queued bytes across users. *)

val backlog_user : t -> user:int -> int
val admitted_bytes : t -> user:int -> int
val shipped_bytes : t -> user:int -> int
val delivered_bytes : t -> user:int -> int
val admit_digest : t -> user:int -> int
val ship_digest : t -> user:int -> int
val deliver_digest : t -> user:int -> int

val delivered_per_user : t -> float array
(** Per-user delivered byte counts as floats ({!Stats.Fairness.jain}
    input). *)

val segments_packed : t -> int
val frames_packed : t -> int

val rejected : t -> int
(** Offered bytes refused by admission control. *)

val junk_bytes : t -> int
(** Bytes the receive-side parser skipped while resynchronising — any
    non-zero value in a clean run is a codec bug. *)

val check_conservation : t -> (unit, string) result
(** The conservation oracle: for every user, delivered bytes and digest
    must equal shipped (guaranteed under full reliability once the
    connection closed cleanly), and — when the user's queue drained —
    admitted must equal shipped too.  [Error] describes the first
    mismatching user. *)
