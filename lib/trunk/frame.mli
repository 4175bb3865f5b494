(** Sub-frame codec for trunk segments.

    A trunk segment's payload is a sequence of length-prefixed
    sub-frames, one per (user, chunk) allocation the intra-trunk
    scheduler made for that segment.  The header is 6 bytes:

    {v
      0      1      2      3      4      5
      +------+------+------+------+------+------+
      |     user id (24-bit BE)  | len (16 BE)  | check |
      +------+------+------+------+------+------+
    v}

    [check] is the XOR of the five preceding bytes with a fixed magic,
    so a parser landing mid-payload (after a truncated or garbage
    header) can resynchronise by scanning forward for the next byte
    position that validates — rejected bytes are reported, subsequent
    frames still parse.  Sub-frames never straddle segments: every
    segment's payload is self-contained, so a lost segment costs only
    its own frames and never desyncs a neighbour.

    Header and payload are written in place into a caller's buffer,
    zero allocations on the batch-encode fast path. *)

val header_bytes : int
(** 6 — per-sub-frame framing overhead. *)

val default_frame_cap : int
(** Default maximum user payload bytes per sub-frame (512).  Caps how
    long one user can monopolise a segment and bounds the resync scan
    after a corrupt header. *)

val max_user : int
(** Highest encodable user id (24-bit space). *)

val max_len : int
(** Highest encodable sub-frame payload length (16-bit space). *)

val max_segment_payload : int
(** Largest segment payload budget a mux packs (64 KiB):
    [Mux.attach] clips a larger budget to it. *)

val measure : len:int -> int
(** Bytes one sub-frame with [len] payload bytes occupies. *)

val put_header : Bytes.t -> pos:int -> user:int -> len:int -> unit
(** Write the 6-byte header for a [len]-byte sub-frame of [user] at
    [pos].  The caller blits the payload at [pos + header_bytes].
    Raises [Invalid_argument] on out-of-range user/len. *)

val encode_into :
  Bytes.t ->
  pos:int ->
  user:int ->
  src:Bytes.t ->
  src_pos:int ->
  len:int ->
  int
(** Header + payload blit in one call; returns [measure ~len]. *)

val valid_at : Bytes.t -> pos:int -> limit:int -> bool
(** Does a structurally valid sub-frame (header check passes, [len >= 1],
    payload fits before [limit]) start at [pos]? *)

val user : Bytes.t -> pos:int -> int

val length : Bytes.t -> pos:int -> int

val iter :
  Bytes.t ->
  pos:int ->
  len:int ->
  frame:(user:int -> off:int -> len:int -> unit) ->
  junk:(bytes:int -> unit) ->
  unit
(** Parse every sub-frame in [\[pos, pos+len)].  [frame] receives each
    valid sub-frame's user and payload position; on an invalid header
    the parser advances one byte at a time until the next position
    validates, reporting each maximal skipped run through [junk].  A
    truncated tail is junk, never an exception. *)
