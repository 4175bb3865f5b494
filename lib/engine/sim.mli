(** Discrete-event simulation core.

    A simulation owns a virtual clock and an event queue.  Events are
    thunks scheduled at absolute or relative virtual times; ties are
    broken by insertion order so runs are fully deterministic.  Time is
    in seconds (float).

    Two interchangeable schedulers sit behind the queue: a hierarchical
    timer wheel ({!Wheel}, the default — O(1) amortized insert/cancel)
    and a binary heap ({!Heap} — O(log n), kept as the differential
    reference).  Both fire events in identical (time, insertion) order;
    the choice is observable only through performance and through
    {!pending}'s accounting of cancelled events. *)

type t

type sched = [ `Heap | `Wheel ]
(** Event-queue backend: [`Wheel] is the hierarchical timer wheel
    (default), [`Heap] the reference binary heap. *)

type handle
(** Cancellation token for a scheduled event. *)

val create : ?seed:int -> ?sched:sched -> unit -> t
(** Fresh simulation at time 0.  [seed] (default 42) seeds the root RNG
    from which components should [split] their own streams.  [sched]
    picks the queue backend (default [`Wheel]). *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** The root random stream of this simulation. *)

val split_rng : t -> Rng.t
(** Convenience for [Rng.split (rng t)]. *)

val arena : t -> Slab.layout -> Slab.t
(** The simulation's shared arena for [layout], created lazily on first
    request.  All flows of one state family inside a simulation pack
    their slots into this one arena, so per-flow state is two flat
    arrays per family instead of a record per flow. *)

val schedule_at : t -> float -> (unit -> unit) -> handle
(** [schedule_at t time f] runs [f] at virtual [time].  Scheduling in the
    past or at a NaN time raises [Invalid_argument].  [infinity] is
    accepted: such an event fires only from an unbounded {!run}. *)

val schedule_after : t -> float -> (unit -> unit) -> handle
(** [schedule_after t delay f] = [schedule_at t (now t +. delay) f].  A
    negative or NaN [delay] raises [Invalid_argument], as it does for
    every [*_after] function below. *)

val post_at : t -> float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_at}: no cancellation handle is built, so
    hot paths that never cancel (link transmission, propagation) avoid
    the per-event handle allocation. *)

val post_after : t -> float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_after}. *)

val schedule_after_ev : t -> float -> (unit -> unit) -> Event.t
(** Handle-free {!schedule_after} for owners that keep the event record
    itself (timers, send ticks): returns the scheduled event, whose
    [gen] must be captured immediately for a later {!cancel_ev}.  Saves
    the per-arming handle allocation on hot re-arm paths. *)

val cancel_ev : t -> Event.t -> gen:int -> unit
(** Cancel an event obtained from {!schedule_after_ev}.  [gen] is the
    event's generation at scheduling time; a stale pair (the event has
    already fired and been recycled) is a no-op, exactly like a stale
    {!handle}. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling a fired or cancelled event is a
    no-op.  A cancelled event never runs and never advances the
    clock. *)

val pending : t -> int
(** Number of events still queued.  Under [`Wheel] cancelled events are
    removed immediately so this counts live events exactly; under
    [`Heap] cancelled placeholders linger (and are counted) until they
    would have fired. *)

val executed : t -> int
(** Events run so far — the denominator for events/sec throughput
    accounting.  Cancelled events do not count. *)

val run : ?until:float -> t -> unit
(** Drain the event queue in time order.  With [until], stops once the
    next live event is strictly later than [until] and advances the
    clock to [until]; a NaN [until] raises [Invalid_argument].  Without
    it, runs until the queue empties.  The loop allocates nothing of
    its own: an event costs only what its thunk allocates. *)

val step : t -> bool
(** Execute the single next live event. [false] if none remain. *)

type trace_op =
  | T_schedule of float  (** an event was enqueued for this time *)
  | T_cancel of int  (** the event with this sequence number was cancelled *)
  | T_pop  (** the next live event fired *)

val set_tracer : t -> (trace_op -> unit) option -> unit
(** Observe the raw scheduler operation stream.  The benchmark suite
    records a scenario's trace once, then replays it against each bare
    queue backend to measure scheduler throughput in isolation from
    protocol work.  [None] (the default) disables tracing; the hook
    costs one branch per operation when unset. *)
