(* Sack.Reassembly: in-order delivery, buffering, forward points. *)

module R = Sack.Reassembly
module S = Packet.Serial

let make () =
  let delivered = ref [] in
  let gaps = ref [] in
  let r =
    R.create
      ~deliver:(fun ~seq ~size -> delivered := (S.to_int seq, size) :: !delivered)
      ~on_gap:(fun ~skipped -> gaps := skipped :: !gaps)
      ()
  in
  (r, delivered, gaps)

let feed r xs = List.iter (fun i -> R.on_data r ~seq:(S.of_int i) ~size:100) xs

let test_in_order_immediate () =
  let r, delivered, _ = make () in
  feed r [ 0; 1; 2 ];
  Alcotest.(check (list (pair int int)))
    "delivered in order"
    [ (0, 100); (1, 100); (2, 100) ]
    (List.rev !delivered);
  Alcotest.(check int) "counter" 3 (R.delivered r);
  Alcotest.(check int) "nothing buffered" 0 (R.buffered r)

let test_out_of_order_buffers () =
  let r, delivered, _ = make () in
  feed r [ 0; 2; 3 ];
  Alcotest.(check (list (pair int int))) "only prefix" [ (0, 100) ]
    (List.rev !delivered);
  Alcotest.(check int) "buffered" 2 (R.buffered r);
  feed r [ 1 ];
  Alcotest.(check (list int)) "hole filled, drained"
    [ 0; 1; 2; 3 ]
    (List.rev_map fst !delivered);
  Alcotest.(check int) "buffer empty" 0 (R.buffered r)

let test_duplicates_dropped () =
  let r, delivered, _ = make () in
  feed r [ 0; 0; 1; 1; 1 ];
  Alcotest.(check int) "two deliveries" 2 (List.length !delivered)

(* An exact duplicate of a still-buffered (out-of-order) segment must
   not double-deliver once the hole fills, and must not disturb the
   delivery counters the fuzz oracles key on. *)
let test_duplicate_of_buffered_segment () =
  let r, delivered, _ = make () in
  feed r [ 0; 2; 2; 3; 2 ];
  Alcotest.(check int) "only the prefix so far" 1 (List.length !delivered);
  Alcotest.(check int) "buffer holds each segment once" 2 (R.buffered r);
  feed r [ 1 ];
  Alcotest.(check (list int)) "each delivered exactly once"
    [ 0; 1; 2; 3 ]
    (List.rev_map fst !delivered);
  Alcotest.(check int) "delivered counter" 4 (R.delivered r);
  Alcotest.(check int) "nothing skipped" 0 (R.skipped r)

let test_stale_dropped () =
  let r, delivered, _ = make () in
  feed r [ 0; 1; 2 ];
  feed r [ 1 ];
  Alcotest.(check int) "stale ignored" 3 (List.length !delivered)

let test_fwd_point_skips_and_reports_gap () =
  let r, delivered, gaps = make () in
  feed r [ 0; 3; 4 ];
  R.apply_fwd_point r (S.of_int 3);
  Alcotest.(check (list int)) "buffered released after skip"
    [ 0; 3; 4 ]
    (List.rev_map fst !delivered);
  Alcotest.(check (list int)) "gap of 2 reported" [ 2 ] !gaps;
  Alcotest.(check int) "skip counter" 2 (R.skipped r);
  Alcotest.(check int) "next expected" 5 (S.to_int (R.next_expected r))

let test_fwd_point_delivers_buffered_inside_range () =
  let r, delivered, gaps = make () in
  feed r [ 0; 2 ];
  (* fwd to 3: hole at 1 abandoned, buffered 2 must be delivered. *)
  R.apply_fwd_point r (S.of_int 3);
  Alcotest.(check (list int)) "0 then 2" [ 0; 2 ] (List.rev_map fst !delivered);
  Alcotest.(check (list int)) "one gap" [ 1 ] !gaps

let test_fwd_point_noop_backwards () =
  let r, delivered, _ = make () in
  feed r [ 0; 1 ];
  R.apply_fwd_point r (S.of_int 1);
  Alcotest.(check int) "unchanged" 2 (List.length !delivered);
  Alcotest.(check int) "next" 2 (S.to_int (R.next_expected r))

let prop_full_delivery_when_everything_arrives =
  QCheck.Test.make
    ~name:"any arrival order delivers the full prefix in order" ~count:200
    QCheck.(list (int_bound 30))
    (fun perm_src ->
      let n = 20 in
      (* Build a permutation of 0..n-1 from the random list. *)
      let order =
        List.sort_uniq Int.compare (List.filter (fun x -> x < n) perm_src)
        @ List.filter
            (fun i ->
              not (List.mem i (List.filter (fun x -> x < n) perm_src)))
            (List.init n Fun.id)
      in
      let r, delivered, _ = make () in
      List.iter (fun i -> R.on_data r ~seq:(S.of_int i) ~size:1) order;
      List.rev_map fst !delivered = List.init n Fun.id)

(* Hostile forward points: the work and the allocation of a jump follow
   the buffered segments, not the jump's width.  With three segments
   buffered inside the jump and one beyond it, a jump of [width]
   delivers the three, skips the rest, and then drains the one. *)
let fwd_jump_words width =
  let delivered = ref 0 and gaps = ref 0 in
  let r =
    R.create
      ~deliver:(fun ~seq:_ ~size:_ -> incr delivered)
      ~on_gap:(fun ~skipped:_ -> incr gaps)
      ()
  in
  feed r [ 0; 5; 9; 17 ];
  R.on_data r ~seq:(S.of_int width) ~size:100;
  Alcotest.(check int) "buffered before the jump" 4 (R.buffered r);
  let fwd = S.of_int width in
  let before = Gc.minor_words () in
  R.apply_fwd_point r fwd;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "delivered: prefix, three inside, one drained" 5
    (R.delivered r);
  Alcotest.(check int) "skipped" (width - 1 - 3) (R.skipped r);
  Alcotest.(check int) "one gap report" 1 !gaps;
  Alcotest.(check int) "callbacks" 5 !delivered;
  Alcotest.(check int) "nothing left" 0 (R.buffered r);
  Alcotest.(check int) "next expected" ((width + 1) land 0xFFFFFFFF)
    (S.to_int (R.next_expected r));
  words

let test_fwd_point_jump_constant () =
  let w6 = fwd_jump_words 1_000_000 and w31 = fwd_jump_words 0x7FFFFFFF in
  Alcotest.(check (float 0.0)) "jump of 10^6 allocates nothing" 0.0 w6;
  Alcotest.(check (float 0.0)) "jump of 2^31 - 1 allocates nothing" 0.0 w31

(* Steady state allocates nothing: in-order delivery, and a hole that
   buffers a few segments and is then repaired. *)
let test_steady_state_words () =
  let r = R.create ~deliver:(fun ~seq:_ ~size:_ -> ()) ~on_gap:(fun ~skipped:_ -> ()) () in
  let round base =
    R.on_data r ~seq:(S.of_int (base + 1)) ~size:100;
    R.on_data r ~seq:(S.of_int (base + 2)) ~size:100;
    R.on_data r ~seq:(S.of_int base) ~size:100;
    R.on_data r ~seq:(S.of_int (base + 3)) ~size:100
  in
  round 0;
  let before = Gc.minor_words () in
  for k = 1 to 1000 do
    round (4 * k)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all delivered" 4004 (R.delivered r);
  Alcotest.(check (float 0.0)) "words" 0.0 words

(* The run-array buffer against a plain model: random arrivals and
   forward points, and the delivery sequence, gap reports and counters
   must match exactly. *)
let prop_matches_model =
  QCheck.Test.make ~name:"reassembly matches a per-number model" ~count:300
    QCheck.(list (pair bool (int_bound 40)))
    (fun ops ->
      let out = ref [] and model_out = ref [] in
      let r =
        R.create
          ~deliver:(fun ~seq ~size -> out := `D (S.to_int seq, size) :: !out)
          ~on_gap:(fun ~skipped -> out := `G skipped :: !out)
          ()
      in
      let buf = Hashtbl.create 16 and next = ref 0 in
      let rec drain () =
        match Hashtbl.find_opt buf !next with
        | Some size ->
            Hashtbl.remove buf !next;
            model_out := `D (!next, size) :: !model_out;
            incr next;
            drain ()
        | None -> ()
      in
      List.iteri
        (fun i (is_fwd, k) ->
          let target = !next + k - 5 in
          if is_fwd then begin
            R.apply_fwd_point r (S.of_int (Stdlib.max 0 target));
            if target > !next then begin
              let gap = ref 0 in
              for s = !next to target - 1 do
                match Hashtbl.find_opt buf s with
                | Some size ->
                    Hashtbl.remove buf s;
                    model_out := `D (s, size) :: !model_out
                | None -> incr gap
              done;
              next := target;
              if !gap > 0 then model_out := `G !gap :: !model_out;
              drain ()
            end
          end
          else if target >= 0 then begin
            R.on_data r ~seq:(S.of_int target) ~size:i;
            if target >= !next && not (Hashtbl.mem buf target) then
              if target = !next then begin
                model_out := `D (target, i) :: !model_out;
                incr next;
                drain ()
              end
              else Hashtbl.replace buf target i
          end)
        ops;
      !out = !model_out
      && R.buffered r = Hashtbl.length buf
      && S.to_int (R.next_expected r) = !next)

let suite =
  [
    Alcotest.test_case "in order" `Quick test_in_order_immediate;
    Alcotest.test_case "out of order buffers" `Quick test_out_of_order_buffers;
    Alcotest.test_case "duplicates" `Quick test_duplicates_dropped;
    Alcotest.test_case "duplicate of buffered segment" `Quick
      test_duplicate_of_buffered_segment;
    Alcotest.test_case "stale" `Quick test_stale_dropped;
    Alcotest.test_case "fwd skips + gap" `Quick
      test_fwd_point_skips_and_reports_gap;
    Alcotest.test_case "fwd delivers buffered" `Quick
      test_fwd_point_delivers_buffered_inside_range;
    Alcotest.test_case "fwd backwards noop" `Quick test_fwd_point_noop_backwards;
    Alcotest.test_case "fwd jump constant words" `Quick
      test_fwd_point_jump_constant;
    Alcotest.test_case "steady state words" `Quick test_steady_state_words;
    QCheck_alcotest.to_alcotest prop_full_delivery_when_everything_arrives;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
