(* The percentile rule.

   Percentiles use the nearest-rank definition: the p-th percentile of
   n sorted samples is the sample at 1-based rank ceil(p/100 * n), so
   [beyond ~n p] samples lie strictly above it.  A tail percentile is
   only worth reporting when at least [min_beyond] samples lie beyond
   it; [highest_supported] applies that rule. *)

let min_beyond = 10

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  Stdlib.max 1 (Stdlib.min n r)

let beyond ~n p = n - rank ~n p

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.percentile: no samples";
  (sorted a).(rank ~n p - 1)

let highest_supported ~n candidates =
  List.fold_left
    (fun best p ->
      if beyond ~n p >= min_beyond then
        match best with Some b when b >= p -> best | _ -> Some p
      else best)
    None candidates
