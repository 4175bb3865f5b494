(* Exact allocation counting.

   [Gc.minor_words ()] reads the minor-heap allocation pointer, so it is
   exact at any instant.  [Gc.quick_stat] and the minor figure of
   [Gc.counters] are only refreshed at minor collections on OCaml 5.1
   (a 10,000-cell list reads 0 and 3,754 words there), so neither is
   used for the minor heap.  Blocks too large for the minor heap go
   straight to the major heap and never touch the minor pointer; the
   major figure of [Gc.counters] is current, but it also counts words
   promoted by minor collections, which [minor_words] already saw.
   Direct major allocation is therefore [major - promoted]. *)

let[@inline never] read () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. (major -. promoted)

(* [read] allocates its result tuple after taking the minor reading, so
   every interval between two reads carries that many words of the
   first read.  Constant, so measure it once. *)
let read_cost =
  let a = read () in
  let b = read () in
  b -. a

let measure f =
  let w0 = read () in
  let r = f () in
  let w1 = read () in
  (r, w1 -. w0 -. read_cost)

(* Peak major heap of this process.  Only meaningful as a per-run figure
   in a process that has done nothing but the run: the runtime keeps a
   lifetime high-water mark with no way to reset it. *)
let peak_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words
