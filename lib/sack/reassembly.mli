(** Receiver-side in-order delivery buffer.

    Segments arrive out of order; the application wants a byte/segment
    stream.  Under full reliability the buffer simply waits for holes to
    be repaired.  Under partial/no reliability, the sender's forward
    point ({!Packet.Header.data}[.fwd_point]) authorises skipping holes:
    buffered segments beyond an abandoned hole are delivered and the gap
    is reported. *)

type t

val create :
  ?cost:Stats.Cost.t ->
  deliver:(seq:Packet.Serial.t -> size:int -> unit) ->
  on_gap:(skipped:int -> unit) ->
  unit ->
  t

val on_data : t -> seq:Packet.Serial.t -> size:int -> unit
(** Buffer (or immediately deliver) one segment.  Duplicates are
    dropped.  Allocates nothing in steady state; buffering grows the
    backing arrays only when more segments wait than ever before. *)

val apply_fwd_point : t -> Packet.Serial.t -> unit
(** Abandon holes below the forward point, releasing buffered segments
    behind them.  The work is proportional to the segments released,
    not to the width of the jump: a forward point [2^31 - 1] numbers
    ahead costs what a short one does. *)

val next_expected : t -> Packet.Serial.t

val delivered : t -> int
(** Segments handed to the application. *)

val skipped : t -> int
(** Sequence numbers abandoned via forward points. *)

val buffered : t -> int
(** Segments currently held waiting for a hole. *)
