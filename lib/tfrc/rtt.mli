(** Sender-side round-trip-time estimator (RFC 3448 §4.3).

    [R = q*R + (1-q)*R_sample] with [q = 0.9].  The timeout value
    [t_RTO] is the RFC 3448 simplification [4*R] (TFRC uses it only in
    the throughput equation and the nofeedback timer, not for
    retransmission). *)

type t = private {
  q : float;
  mutable estimate : float;  (** the current estimate: {!smoothed} *)
  mutable count : float;  (** samples taken, in a float cell *)
  mutable last : float;
      (** the latest [R_sample] {!sample_echo} computed, positive or
          not (0 before any) *)
}
(** An all-float record, so it is flat in the heap.  It is exposed
    read-only so that a caller in another module can read [estimate]
    as an unboxed float: {!smoothed} is a call that boxes its result,
    since dune's dev profile ([-opaque]) inlines nothing across
    modules. *)

val create : ?q:float -> initial:float -> unit -> t
(** [initial] seeds the estimate used before the first sample. *)

val sample : t -> float -> unit
(** Feed one measurement (seconds, must be positive). The first sample
    replaces the seed entirely.
    @raise Invalid_argument if the measurement is not positive (NaN
    included). *)

val sample_echo : t -> now:float -> tstamp_echo:float -> t_delay:float -> unit
(** Compute [R_sample = now - tstamp_echo - t_delay] (RFC 3448 §4.3),
    record it in [last], and feed it to {!sample} if it is positive.
    Allocates nothing. *)

val reseed : t -> float -> unit
(** Replace the estimate with a fresh seed (handover onto a link with a
    declared latency) and forget the sample count, so the next
    measurement replaces the seed entirely as at creation.
    @raise Invalid_argument if the seed is not positive (NaN
    included). *)

val smoothed : t -> float
(** Current estimate (the seed if no sample yet). *)

val has_sample : t -> bool

val t_rto : t -> float
(** [4 * smoothed]. *)

val samples : t -> int
