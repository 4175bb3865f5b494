(* Layer spans: calls, self time and exact self words per named span.

   The benchmark wraps the closures it hands the library (endpoint
   injections and receive hooks, the trunk's pull source) in
   [enter]/[leave].  Spans nest — a receive callback that sends feedback
   runs an injection span inside its own — and a span's self figures
   exclude every span nested in it, so each unit of work is charged to
   exactly one layer.

   Bookkeeping is allocation-free (preallocated float arrays), but the
   readings themselves cost: [enter] reads words then the clock, [leave]
   the clock then words, and the readings allocate (boxed results, the
   [Gc.counters] tuple).  Part of that cost falls inside a span's own
   interval and the rest just outside it, which is inside its parent or,
   for a top-level span, outside every span.  [calibrate] measures both
   parts once, in words and in time, and every span subtracts them
   again: self figures are the body's alone, and [overhead_s] is the
   readings' total time.  Time outside every span is then total traced
   time minus [total_self] minus [overhead_s]. *)

let max_depth = 64

type t = {
  names : string array;
  calls : int array;
  self_s : float array;
  self_w : float array;
  clock : unit -> float;
  words : unit -> float;
  cal : float array;
      (* [|words a span's own readings leave inside its interval;
           words they leave just outside it;
           the same two parts in seconds|] *)
  mutable overhead : float;  (* reading seconds, charged to no span *)
  st_id : int array;
  st_t0 : float array;
  st_w0 : float array;
  st_ct : float array;  (* time of completed children, readings included *)
  st_cw : float array;  (* words of completed children, readings included *)
  mutable depth : int;
}

let make ~clock ~words names =
  let n = Array.length names in
  {
    names;
    calls = Array.make n 0;
    self_s = Array.make n 0.0;
    self_w = Array.make n 0.0;
    clock;
    words;
    cal = [| 0.0; 0.0; 0.0; 0.0 |];
    overhead = 0.0;
    st_id = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0.0;
    st_w0 = Array.make max_depth 0.0;
    st_ct = Array.make max_depth 0.0;
    st_cw = Array.make max_depth 0.0;
    depth = 0;
  }

let reset t =
  Array.fill t.calls 0 (Array.length t.calls) 0;
  Array.fill t.self_s 0 (Array.length t.self_s) 0.0;
  Array.fill t.self_w 0 (Array.length t.self_w) 0.0;
  t.overhead <- 0.0;
  t.depth <- 0

let enter t id =
  let d = t.depth in
  if d >= max_depth then failwith "Span.enter: spans nested too deep";
  t.st_id.(d) <- id;
  t.st_ct.(d) <- 0.0;
  t.st_cw.(d) <- 0.0;
  t.depth <- d + 1;
  t.st_w0.(d) <- t.words ();
  t.st_t0.(d) <- t.clock ()

let leave t =
  let t1 = t.clock () in
  let w1 = t.words () in
  let d = t.depth - 1 in
  if d < 0 then failwith "Span.leave: no open span";
  t.depth <- d;
  let id = t.st_id.(d) in
  let dt = t1 -. t.st_t0.(d) in
  let dw = w1 -. t.st_w0.(d) in
  t.calls.(id) <- t.calls.(id) + 1;
  t.self_s.(id) <- t.self_s.(id) +. (dt -. t.cal.(2) -. t.st_ct.(d));
  t.self_w.(id) <- t.self_w.(id) +. (dw -. t.cal.(0) -. t.st_cw.(d));
  t.overhead <- t.overhead +. t.cal.(2) +. t.cal.(3);
  if d > 0 then begin
    t.st_ct.(d - 1) <- t.st_ct.(d - 1) +. dt +. t.cal.(3);
    t.st_cw.(d - 1) <- t.st_cw.(d - 1) +. dw +. t.cal.(1)
  end

let wrap t id f x =
  enter t id;
  match f x with
  | r ->
      leave t;
      r
  | exception e ->
      leave t;
      raise e

let median3 a b c = Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Empty spans do nothing themselves, so whatever they are charged is
   reading cost: an empty span gives the inside part, an empty span
   nested in another the outside part.  Each part is the mean over a
   batch of [batch] spans (the clock ticks in microseconds, about one
   reading's cost, so single spans read whole ticks), and the reported
   time is the median of three batches.  Words are exact and constant. *)
let calibrate ?(batch = 2000) t =
  let n = float_of_int batch in
  let round () =
    Array.fill t.cal 0 4 0.0;
    reset t;
    for _ = 1 to batch do
      enter t 0;
      leave t
    done;
    t.cal.(0) <- t.self_w.(0) /. n;
    t.cal.(2) <- t.self_s.(0) /. n;
    reset t;
    for _ = 1 to batch do
      enter t 0;
      enter t 0;
      leave t;
      leave t
    done;
    (t.cal.(0), t.self_w.(0) /. n, t.cal.(2), t.self_s.(0) /. n)
  in
  ignore (round ());
  let w_in, w_out, a, a' = round () in
  let _, _, b, b' = round () in
  let _, _, c, c' = round () in
  t.cal.(0) <- w_in;
  t.cal.(1) <- w_out;
  t.cal.(2) <- median3 a b c;
  t.cal.(3) <- median3 a' b' c';
  reset t;
  (* Self-check: nested empty spans must now read zero words. *)
  enter t 0;
  enter t 0;
  leave t;
  leave t;
  let residue = t.self_w.(0) in
  reset t;
  if residue <> 0.0 then
    failwith (Printf.sprintf "Span.calibrate: residue of %g words" residue)

let create names =
  let t = make ~clock:Clock.now ~words:Alloc.read names in
  calibrate t;
  t

let total_self t = Array.fold_left ( +. ) 0.0 t.self_s

let overhead_s t = t.overhead

let calls t id = t.calls.(id)

let self_s t id = t.self_s.(id)

let self_w t id = t.self_w.(id)
