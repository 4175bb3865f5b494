(** Binary wire codec for VTP headers.

    Layout is big-endian.  Every segment starts with a 4-byte common
    prefix: 1 byte type tag, 1 byte flags/extra, 2 bytes Fletcher-16
    checksum over the rest of the encoding.  Floats (timestamps, rates)
    travel as IEEE-754 doubles; in a space-optimised deployment these
    would be scaled fixed-point fields, which changes sizes but nothing
    structural, so we keep the readable encoding and account sizes via
    {!Header.wire_size}. *)

exception Malformed of string

val encode : Header.t -> bytes
(** Serialise a header (payload bytes are carried out of band). *)

val decode : bytes -> Header.t
(** Inverse of [encode].
    @raise Malformed on truncation, bad tag, or checksum mismatch. *)

val fletcher16 : bytes -> pos:int -> len:int -> int
(** The checksum used by the codec, exposed for tests. *)
