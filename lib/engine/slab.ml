(* Struct-of-arrays arena for per-flow protocol state.

   A [layout] declares how many float and int cells one slot needs; an
   arena ([t]) packs every slot of that layout into two flat parallel
   arrays.  Protocol modules register a layout once at program init and
   allocate one slot per flow from the owning simulation's arena (see
   {!Sim.arena}), so 10k flows hold two arrays per state family rather
   than 10k boxed records.  The float cells live unboxed in a flat
   [float array].  Float cells are reached through a view
   ([floats] plus the row base [fbase]) that the owning module indexes
   with [Array.unsafe_get]/[unsafe_set] itself: a float-returning
   accessor here would box its result on every call from another
   module under [-opaque] (dune's dev profile).  See the interface.

   Slots are never freed: flow state lives exactly as long as its
   simulation, and the arena is unreachable as soon as the [Sim.t] is.
   Standalone instances (unit tests, simless oracles) can [create]
   their own private arena. *)

type layout = { key : int; nf : int; ni : int }

(* Registration happens only from module initialisers (single-threaded,
   before any pool worker spawns); the counter is layout metadata, not
   run-time state. *)
let[@vtp.ambient] next_key = ref 0

let layout ~floats ~ints =
  assert (floats >= 0 && ints >= 0);
  let key = !next_key in
  incr next_key;
  { key; nf = floats; ni = ints }

let registered () = !next_key

let key l = l.key

type t = {
  lay : layout;
  mutable f : float array;
  mutable i : int array;
  mutable cap : int;  (* slots the arrays can hold *)
  mutable n : int;  (* slots handed out *)
}

let create lay = { lay; f = [||]; i = [||]; cap = 0; n = 0 }

let slots t = t.n

let grow t =
  let cap = Stdlib.max 8 (2 * t.cap) in
  let nf = Array.make (cap * t.lay.nf) 0.0
  and ni = Array.make (cap * t.lay.ni) 0 in
  Array.blit t.f 0 nf 0 (t.n * t.lay.nf);
  Array.blit t.i 0 ni 0 (t.n * t.lay.ni);
  t.f <- nf;
  t.i <- ni;
  t.cap <- cap

let alloc t =
  if t.n = t.cap then grow t;
  let slot = t.n in
  t.n <- slot + 1;
  slot

(* Accessors are bounds-unchecked: [slot] comes from [alloc] and the
   field index from the module's own layout constants, both invariants
   local to the owning module (the same contract as the SACK rings). *)

let[@inline] [@vtp.hot] floats t = t.f

let[@inline] [@vtp.hot] fbase t slot = slot * t.lay.nf

let[@inline] [@vtp.hot] iget t slot j =
  Array.unsafe_get t.i ((slot * t.lay.ni) + j)

let[@inline] [@vtp.hot] iset t slot j v =
  Array.unsafe_set t.i ((slot * t.lay.ni) + j) v
