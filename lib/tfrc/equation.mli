(** The TCP throughput equation of RFC 3448 (Padhye et al.).

    [X = s / (R*sqrt(2*b*p/3) + t_RTO * (3*sqrt(3*b*p/8)) * p * (1+32*p^2))]

    where [s] is the segment size (bytes), [R] the round-trip time (s),
    [p] the loss event rate, [b] the number of packets acknowledged per
    ACK (1 for TFRC), and [t_RTO ~ 4R].  The result is in bytes/s. *)

val rate : s:int -> r:float -> p:float -> unit -> float
(** Equation throughput in bytes/s, with [b = 1] and [t_RTO = 4*r] as
    RFC 3448 §4.3 fixes them for TFRC.  [p <= 0] means "no loss
    observed"; the equation diverges there, so we return [infinity] and
    let callers clamp (RFC 3448 callers always take a [min] with
    [2*X_recv]).
    @raise Invalid_argument if [s <= 0] or [r] is not positive (NaN
    included). *)

val rate_bps : s:int -> r:float -> p:float -> unit -> float
(** [rate] in bits/s. *)

val loss_rate_for : s:int -> r:float -> target:float -> float
(** Inverse of [rate]: the loss event rate at which the equation yields
    [target] bytes/s, found by bisection on [p] in [\[1e-8, 1\]].  Used to
    seed the first loss interval from the measured receive rate
    (RFC 3448 §6.3.1).  Returns 1.0 if even p=1 gives more than
    [target], and 1e-8 if p=1e-8 still gives less.  Allocates only its
    boxed result.
    @raise Invalid_argument if [s <= 0], or if [r] or [target] is not
    positive (NaN included). *)
