(* Inlined into [loss_rate_for], whose bisection then evaluates it on
   unboxed floats.  [b] (packets per ACK) is 1 and [t_RTO] is 4R, as
   RFC 3448 §4.3 fixes them for TFRC. *)
let[@inline] [@vtp.hot] rate ~s ~r ~p () =
  if s <= 0 then invalid_arg "Tfrc.Equation.rate: s must be > 0";
  if not (r > 0.0) then invalid_arg "Tfrc.Equation.rate: r must be > 0";
  if p <= 0.0 then infinity
  else begin
    let b = 1.0 and p = Float.min p 1.0 in
    let t_rto = 4.0 *. r in
    let root1 = sqrt (2.0 *. b *. p /. 3.0) in
    let root2 = sqrt (3.0 *. b *. p /. 8.0) in
    let denom =
      (r *. root1) +. (t_rto *. 3.0 *. root2 *. p *. (1.0 +. (32.0 *. p *. p)))
    in
    float_of_int s /. denom
  end

let rate_bps ~s ~r ~p () = 8.0 *. rate ~s ~r ~p ()

let loss_rate_for ~s ~r ~target =
  assert (target > 0.0);
  if s <= 0 then invalid_arg "Tfrc.Equation.loss_rate_for: s must be > 0";
  if not (r > 0.0) then
    invalid_arg "Tfrc.Equation.loss_rate_for: r must be > 0";
  (* [rate] inlines and the local refs never escape, so the bisection
     allocates nothing.  (A local [f p = rate ...] closure would not
     inline, and would box per call.) *)
  let lo = 1e-8 and hi = 1.0 in
  if rate ~s ~r ~p:hi () >= target then 1.0
  else if rate ~s ~r ~p:lo () <= target then lo
  else begin
    (* rate is decreasing in p: bisect for rate p = target. *)
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 60 do
      let mid = (!lo +. !hi) /. 2.0 in
      if rate ~s ~r ~p:mid () > target then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end
