(** Sender-side SACK scoreboard.

    Tracks every transmitted-but-unacknowledged sequence number with its
    send time and retransmission count; digests SACK feedback into
    cumulative-ack advances, newly SACKed numbers, and loss inferences
    (a hole is deemed lost once [dupthresh] SACKed numbers lie above it
    — the SACK analogue of TCP's three duplicate ACKs); and supports
    time-based expiry as a last-resort loss detector when SACK
    information stalls. *)

type cover = {
  cov_seq : Packet.Serial.t;
  cov_sent_at : float;  (** first transmission time *)
  cov_was_retx : bool;  (** was ever retransmitted *)
}
(** A sequence number newly known to have reached the receiver (the
    list form {!Qtp.Loss_reconstructor.on_covers} replays). *)

type t

val create :
  ?dupthresh:int ->
  ?capacity:int ->
  ?cost:Stats.Cost.t ->
  ?trace:Trace.Sink.t ->
  unit ->
  t
(** [trace] makes the scoreboard record retransmissions and loss
    inferences (dupthresh and timeout) into the flight recorder; the
    sink supplies the clock the scoreboard itself does not hold.
    [capacity] pre-sizes the per-packet ring (rounded up to a power of
    two, default 256); the ring grows on demand either way, so this is
    purely a steady-state hint for large-BDP windows. *)

val on_send :
  t -> seq:Packet.Serial.t -> now:float -> size:int -> is_retx:bool -> unit
(** Record a (re)transmission.  New sequence numbers must be sent in
    order; retransmissions must reference a tracked number. *)

val next_seq : t -> Packet.Serial.t
(** The next fresh sequence number ([snd_nxt]). *)

val una : t -> Packet.Serial.t
(** Lowest unacknowledged sequence number ([snd_una]). *)

(** {2 Feedback digest}

    {!digest} digests one SACK feedback and stages what it uncovered in
    the scoreboard's scratch arrays; the accessors below read that stage
    by index.  The stage is valid until the next {!digest}.  Nothing is
    allocated in steady state: no callbacks, no lists, no result record
    (the scratch arrays only grow when a feedback uncovers more than any
    before it). *)

val digest : t -> cum_ack:Packet.Serial.t -> blocks:Blocks.t list -> unit
(** Apply a cumulative ack and SACK blocks.  Stages, in order:
    - the covers: the cumulative-ack covers (indices [\[0, fb_acked)])
      then the fresh SACK covers (the next {!fb_sacked}), each
      ascending, so the whole stage is in ascending sequence order;
    - the fresh dupthresh loss inferences ({!fb_lost} of them),
      ascending.  Every digest re-walks the holes from [una], so a
      retransmitted number that is still unSACKed is inferred lost
      again by the next digest with [dupthresh] SACKed numbers above
      it. *)

val fb_acked : t -> int
val fb_sacked : t -> int

val fb_covers : t -> int
(** [fb_acked + fb_sacked]. *)

val fb_lost : t -> int

val fb_cum_advanced : t -> bool
(** Whether the last digest moved [snd_una]. *)

val cover_seq : t -> int -> Packet.Serial.t
val cover_sent_at : t -> int -> float
(** First transmission time of the [k]-th cover. *)

val cover_was_retx : t -> int -> bool
(** Whether the [k]-th cover was ever retransmitted. *)

val lost_seq : t -> int -> Packet.Serial.t
(** The [k]-th fresh loss inference.  All accessors raise
    [Invalid_argument] outside the staged range. *)

val lost_pending : t -> Packet.Serial.t list
(** Numbers currently inferred lost and not yet retransmitted,
    ascending. *)

val mark_expired : t -> now:float -> timeout:float -> Packet.Serial.t list
(** Promote to lost every unacked, unsacked number whose last
    transmission is older than [timeout].  Returns the newly lost
    numbers (they also join {!lost_pending}). *)

val abandon_below : t -> Packet.Serial.t -> unit
(** Give up on everything below the given number (partial/no
    reliability): entries are dropped as if acknowledged, without
    counting as delivered. *)

val retx_count : t -> Packet.Serial.t -> int
(** Retransmissions so far of one number (0 if unknown). *)

val status :
  t -> Packet.Serial.t -> [ `Untracked | `In_flight | `Sacked | `Lost ]
(** Current knowledge about one sequence number.  [`Untracked] means
    never sent, already cumulatively acked, or abandoned. *)

val first_sent_at : t -> Packet.Serial.t -> float option
(** Time of the original transmission, while still tracked. *)

val outstanding : t -> int
(** Tracked, not-yet-covered sequence numbers. *)

val in_flight_bytes : t -> int

val runs_held : t -> int * int
(** [(sacked_runs, lost_runs)] currently held by the run-length state —
    introspection for the adversarial fragmentation tests and benches. *)

val stats_sent : t -> int
val stats_retx : t -> int
val stats_acked : t -> int
