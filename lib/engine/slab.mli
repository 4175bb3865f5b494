(** Struct-of-arrays arenas for dense per-flow state.

    A {!layout} names one state family (the TFRC sender's rate machine,
    a connection's receive window, …) and fixes its float/int cell
    counts; an arena packs every slot of one layout into two flat
    parallel arrays, so ten thousand flows of one family cost two
    arrays instead of ten thousand records.  See {!Sim.arena} for the
    per-simulation arena registry.

    Float cells are stored unboxed and are reached through a {e view}:
    {!floats} returns the arena's flat [float array] and {!fbase} the
    first cell of a slot, and the owning module reads and writes
    [Array.unsafe_get (floats a) (fbase a slot + j)] itself.  Because
    the array's static type is [float array], the load and the store
    compile to raw unboxed accesses in the caller, in every build
    profile.  A float-returning accessor would not: dune's default dev
    profile compiles with [-opaque], so a call from another module is
    never inlined and its result is boxed (2 words per read, 4 per
    read-modify-write, as measured before the view replaced it).
    Integer cells have no such cost and keep {!iget}/{!iset}. *)

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

val floats : t -> float array
(** The arena's float cells, all slots back to back.  Fetch it again
    after any {!alloc}: growing the arena replaces the array.  Indexing
    is unchecked by contract: only the owning module's layout constants
    and {!fbase} results may be used. *)

val fbase : t -> int -> int
(** [fbase a slot] is the index of float cell 0 of [slot] in
    {!floats}[ a]; cell [j] is at [fbase a slot + j]. *)

val iget : t -> int -> int -> int

val iset : t -> int -> int -> int -> unit
