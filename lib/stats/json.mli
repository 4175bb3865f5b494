(** Minimal JSON tree, serialiser and reader for machine-readable
    outputs (SARIF reports, the analyzer baseline, qlog traces) — no
    external JSON dependency.

    Serialisation is deterministic (object fields print in the order
    given), NaN and infinities are emitted as [null] so the output
    always parses, and strings are escaped per RFC 8259.  The reader
    ({!of_string}) exists so in-repo tooling ([Analysis.Baseline])
    can load the files this module writes back in; it accepts standard
    JSON, not just our own output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with the given indent width (default 2). *)

val to_channel : ?indent:int -> out_channel -> t -> unit
(** [to_string] plus a trailing newline. *)

val pp : Format.formatter -> t -> unit

exception Parse_error of string
(** Raised by {!of_string} with an offset and a description. *)

val of_string : string -> t
(** Parse one JSON value (plus surrounding whitespace).  Numbers
    without a fraction or exponent become [Int], all others [Float];
    [\uXXXX] escapes above 0x7f decode as ['?'] (the emitter never
    produces them).  @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] on
    a missing key or a non-object. *)
