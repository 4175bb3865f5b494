(* All fields are floats on purpose: an all-float record is flat in
   the OCaml heap, so the per-feedback estimate update writes in place
   instead of boxing a fresh float (a mixed record would).  [count]
   carries an integer value in a float cell for the same reason. *)
type t = {
  q : float;
  mutable estimate : float;
  mutable count : float;
  mutable last : float;  (* latest R_sample of [sample_echo] *)
}

let create ?(q = 0.9) ~initial () =
  (* Written so that a NaN fails the test as well. *)
  if not (initial > 0.0) then
    invalid_arg "Tfrc.Rtt.create: initial must be > 0";
  if not (q >= 0.0 && q < 1.0) then
    invalid_arg "Tfrc.Rtt.create: q must be in [0, 1)";
  { q; estimate = initial; count = 0.0; last = 0.0 }

let[@inline] update t r =
  if Float.equal t.count 0.0 then t.estimate <- r
  else t.estimate <- (t.q *. t.estimate) +. ((1.0 -. t.q) *. r);
  t.count <- t.count +. 1.0

let sample t r =
  if not (r > 0.0) then invalid_arg "Tfrc.Rtt.sample: r must be > 0";
  update t r

(* Every argument arrives boxed already (the clock and two header
   fields), so taking the sample here allocates nothing, where passing
   a computed sample in would box it. *)
let[@vtp.hot] sample_echo t ~now ~tstamp_echo ~t_delay =
  let r = now -. tstamp_echo -. t_delay in
  t.last <- r;
  if r > 0.0 then update t r

let reseed t r =
  if not (r > 0.0) then invalid_arg "Tfrc.Rtt.reseed: r must be > 0";
  t.estimate <- r;
  t.count <- 0.0

let smoothed t = t.estimate

let has_sample t = t.count > 0.0

let t_rto t = 4.0 *. t.estimate

let samples t = int_of_float t.count
