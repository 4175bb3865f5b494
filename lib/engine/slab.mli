(** Struct-of-arrays arenas for dense per-flow state.

    A {!layout} names one state family (the TFRC sender's rate machine,
    a connection's receive window, …) and fixes its float/int cell
    counts; an arena packs every slot of one layout into two flat
    parallel arrays, so ten thousand flows of one family cost two
    arrays instead of ten thousand records.  See {!Sim.arena} for the
    per-simulation arena registry.

    Float cells are stored unboxed, but whether {!fget}/{!fset}
    allocate depends on the build.  They allocate nothing only where
    they inline into the caller, which needs cross-module information:
    dune's release profile.  Dune's default dev profile compiles with
    [-opaque], so every call from another module is a real call: an
    {!fget} returns a boxed float (2 words) and an {!fset} of a computed
    value boxes its argument (2 more words), no better than a float
    field in a mixed-type mutable record. *)

type layout

val layout : floats:int -> ints:int -> layout
(** Register a slot layout.  Call only from a module initialiser: the
    registration order must be fixed before any simulation exists. *)

val registered : unit -> int
(** Number of layouts registered so far. *)

val key : layout -> int
(** Dense index of this layout in the registration order. *)

type t

val create : layout -> t
(** A fresh private arena — for standalone instances (tests, simless
    oracles).  Flow state inside a simulation should use {!Sim.arena}
    so all flows of one family share one pair of arrays. *)

val alloc : t -> int
(** Claim the next slot (cells zero-initialised).  Slots are never
    freed; the arena lives as long as its owner. *)

val slots : t -> int

val fget : t -> int -> int -> float
(** [fget a slot j] reads float cell [j] of [slot].  Unchecked. *)

val fset : t -> int -> int -> float -> unit

val iget : t -> int -> int -> int

val iset : t -> int -> int -> int -> unit
