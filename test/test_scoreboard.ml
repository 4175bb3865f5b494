(* Sack.Scoreboard: send tracking, feedback digestion, loss inference,
   expiry, abandonment. *)

module SB = Sack.Scoreboard
module S = Packet.Serial

let blk a b = Sack.Blocks.make (S.of_int a) (S.of_int b)

let send_n sb ?(start = 0) ?(t0 = 0.0) n =
  for i = start to start + n - 1 do
    SB.on_send sb ~seq:(S.of_int i)
      ~now:(t0 +. (float_of_int i *. 0.001))
      ~size:1000 ~is_retx:false
  done

let test_sequencing () =
  let sb = SB.create () in
  Alcotest.(check int) "starts at 0" 0 (S.to_int (SB.next_seq sb));
  send_n sb 5;
  Alcotest.(check int) "next" 5 (S.to_int (SB.next_seq sb));
  Alcotest.(check int) "una" 0 (S.to_int (SB.una sb));
  Alcotest.(check int) "outstanding" 5 (SB.outstanding sb)

let test_out_of_order_send_rejected () =
  let sb = SB.create () in
  Alcotest.(check bool) "skip rejected" true
    (try
       SB.on_send sb ~seq:(S.of_int 3) ~now:0.0 ~size:1000 ~is_retx:false;
       false
     with Invalid_argument _ -> true)

let test_cum_ack_advances () =
  let sb = SB.create () in
  send_n sb 5;
  let res = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 3) ~blocks:[] in
  Alcotest.(check bool) "cum advanced" true res.Fb_lists.cum_advanced;
  Alcotest.(check int) "3 newly acked" 3 (List.length res.Fb_lists.newly_acked);
  Alcotest.(check int) "una" 3 (S.to_int (SB.una sb));
  Alcotest.(check int) "outstanding" 2 (SB.outstanding sb);
  (* Acked covers come in ascending order with send times. *)
  (match res.Fb_lists.newly_acked with
  | { SB.cov_seq; cov_sent_at; cov_was_retx } :: _ ->
      Alcotest.(check int) "first cover" 0 (S.to_int cov_seq);
      Alcotest.(check (float 1e-9)) "send time" 0.0 cov_sent_at;
      Alcotest.(check bool) "not retx" false cov_was_retx
  | [] -> Alcotest.fail "expected covers")

let test_sack_marks () =
  let sb = SB.create () in
  send_n sb 10;
  let res = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 5 8 ] in
  Alcotest.(check int) "newly sacked" 3 (List.length res.Fb_lists.newly_sacked);
  Alcotest.(check bool) "status sacked" true (SB.status sb (S.of_int 6) = `Sacked);
  (* Re-reporting the same block adds nothing. *)
  let res2 =
    Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 5 8 ]
  in
  Alcotest.(check int) "idempotent" 0 (List.length res2.Fb_lists.newly_sacked)

let test_loss_inference_dupthresh () =
  let sb = SB.create ~dupthresh:3 () in
  send_n sb 10;
  (* 0 missing; sacked 1-2 -> only 2 above: not yet lost. *)
  let r1 = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 3 ] in
  Alcotest.(check (list int)) "not yet" []
    (List.map S.to_int r1.Fb_lists.newly_lost);
  let r2 = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 4 ] in
  Alcotest.(check (list int)) "now lost" [ 0 ]
    (List.map S.to_int r2.Fb_lists.newly_lost);
  Alcotest.(check bool) "status lost" true (SB.status sb (S.of_int 0) = `Lost);
  Alcotest.(check (list int)) "pending" [ 0 ]
    (List.map S.to_int (SB.lost_pending sb))

let test_multiple_holes_inferred () =
  let sb = SB.create () in
  send_n sb 12;
  (* Holes at 0,1 and 5; sacked 2..5? sacked blocks [2,5) and [6,12). *)
  let r =
    Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 2 5; blk 6 12 ]
  in
  Alcotest.(check (list int)) "holes below enough sacks" [ 0; 1; 5 ]
    (List.map S.to_int r.Fb_lists.newly_lost)

let test_retransmit_resets () =
  let sb = SB.create () in
  send_n sb 6;
  SB.digest sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 6 ];
  Alcotest.(check bool) "lost" true (SB.status sb (S.of_int 0) = `Lost);
  SB.on_send sb ~seq:(S.of_int 0) ~now:1.0 ~size:1000 ~is_retx:true;
  Alcotest.(check bool) "in flight again" true
    (SB.status sb (S.of_int 0) = `In_flight);
  Alcotest.(check int) "retx counted" 1 (SB.retx_count sb (S.of_int 0));
  Alcotest.(check int) "stats" 1 (SB.stats_retx sb);
  (* Cum ack after repair: cover reports the original send time and the
     retransmit flag. *)
  let r = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 6) ~blocks:[] in
  match r.Fb_lists.newly_acked with
  | [ c ] ->
      Alcotest.(check bool) "was retx" true c.SB.cov_was_retx;
      Alcotest.(check int) "seq 0" 0 (S.to_int c.SB.cov_seq)
  | l -> Alcotest.failf "expected 1 cover (sacked ones not repeated), got %d" (List.length l)

let test_retransmit_unknown_rejected () =
  let sb = SB.create () in
  Alcotest.(check bool) "unknown retx rejected" true
    (try
       SB.on_send sb ~seq:(S.of_int 0) ~now:0.0 ~size:1000 ~is_retx:true;
       false
     with Invalid_argument _ -> true)

let test_mark_expired () =
  let sb = SB.create () in
  send_n sb 3;
  let expired = SB.mark_expired sb ~now:10.0 ~timeout:1.0 in
  Alcotest.(check (list int)) "all expired" [ 0; 1; 2 ]
    (List.map S.to_int expired);
  Alcotest.(check (list int)) "idempotent" []
    (List.map S.to_int (SB.mark_expired sb ~now:10.0 ~timeout:1.0))

let test_expiry_skips_sacked_and_fresh () =
  let sb = SB.create () in
  send_n sb 4;
  SB.digest sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 2 3 ];
  (* seq 3 sent at t=3ms; with now=0.1 and timeout=0.098 only 0,1 are old
     enough; 2 is sacked. *)
  let expired = SB.mark_expired sb ~now:0.1 ~timeout:0.0975 in
  Alcotest.(check (list int)) "old unsacked only" [ 0; 1 ]
    (List.map S.to_int expired)

let test_abandon_below () =
  let sb = SB.create () in
  send_n sb 10;
  SB.abandon_below sb (S.of_int 4);
  Alcotest.(check int) "una moved" 4 (S.to_int (SB.una sb));
  Alcotest.(check int) "entries dropped" 6 (SB.outstanding sb);
  Alcotest.(check bool) "untracked" true (SB.status sb (S.of_int 2) = `Untracked)

let test_in_flight_bytes () =
  let sb = SB.create () in
  send_n sb 4;
  Alcotest.(check int) "4 kB" 4000 (SB.in_flight_bytes sb);
  SB.digest sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 2 ];
  Alcotest.(check int) "sacked not in flight" 3000 (SB.in_flight_bytes sb)

let prop_sacked_and_lost_disjoint =
  QCheck.Test.make ~name:"no seq both sacked and lost" ~count:200
    QCheck.(list (pair (int_bound 30) (int_bound 5)))
    (fun raw_blocks ->
      let sb = SB.create () in
      send_n sb 32;
      List.iter
        (fun (a, len) ->
          if len > 0 && a + len <= 32 then
            SB.digest sb ~cum_ack:(S.of_int 0) ~blocks:[ blk a (a + len) ])
        raw_blocks;
      List.for_all
        (fun i ->
          match SB.status sb (S.of_int i) with
          | `Sacked | `Lost | `In_flight | `Untracked -> true)
        (List.init 32 Fun.id)
      && List.for_all
           (fun s -> SB.status sb s = `Lost)
           (SB.lost_pending sb))

let prop_una_monotone =
  QCheck.Test.make ~name:"una never regresses" ~count:200
    QCheck.(list (int_bound 40))
    (fun acks ->
      let sb = SB.create () in
      send_n sb 40;
      let ok = ref true in
      let prev = ref 0 in
      List.iter
        (fun a ->
          SB.digest sb ~cum_ack:(S.of_int a) ~blocks:[];
          let u = S.to_int (SB.una sb) in
          if u < !prev then ok := false;
          prev := u)
        acks;
      !ok)

(* ------------------------------------------------------------------ *)
(* Differential testing against the frozen per-entry reference
   implementation: a random operation stream — send bursts, SACK
   feedback, retransmission of every pending loss, timeout expiry and
   abandonment — is replayed through both the run-length scoreboard and
   [Sack.Scoreboard_ref], and every externally observable result must
   match exactly: feedback covers, loss inferences, expiry lists,
   per-sequence status and the aggregate counters. *)

module SBR = Sack.Scoreboard_ref

let cover_repr (c : SB.cover) =
  (S.to_int c.SB.cov_seq, c.SB.cov_sent_at, c.SB.cov_was_retx)

let cover_repr_ref (c : SBR.cover) =
  (S.to_int c.SBR.cov_seq, c.SBR.cov_sent_at, c.SBR.cov_was_retx)

let differential_run ~seed ~steps =
  let rng = Engine.Rng.create ~seed in
  let sb = SB.create ~dupthresh:3 () in
  let sbr = SBR.create ~dupthresh:3 () in
  let now = ref 0.0 in
  let ok = ref true in
  let expect _what b = if not b then ok := false in
  let both_send seq ~is_retx =
    SB.on_send sb ~seq ~now:!now ~size:1000 ~is_retx;
    SBR.on_send sbr ~seq ~now:!now ~size:1000 ~is_retx
  in
  for _ = 1 to steps do
    now := !now +. 0.001 +. Engine.Rng.float rng 0.01;
    (match Engine.Rng.int rng 8 with
    | 0 | 1 ->
        let n = 1 + Engine.Rng.int rng 24 in
        for _ = 1 to n do
          both_send (SB.next_seq sb) ~is_retx:false
        done
    | 2 | 3 | 4 ->
        let una = S.to_int (SB.una sb) in
        let nxt = S.to_int (SB.next_seq sb) in
        let window = nxt - una in
        let cum = una + Engine.Rng.int rng (window + 1) in
        let blocks =
          List.init (Engine.Rng.int rng 4) (fun _ ->
              let a = cum + 1 + Engine.Rng.int rng (Stdlib.max 1 (nxt - cum) + 2) in
              blk a (a + 1 + Engine.Rng.int rng 6))
        in
        let r = Fb_lists.on_feedback sb ~cum_ack:(S.of_int cum) ~blocks in
        let rr = SBR.on_feedback sbr ~cum_ack:(S.of_int cum) ~blocks in
        expect "cum_advanced" (r.Fb_lists.cum_advanced = rr.SBR.cum_advanced);
        expect "newly_acked"
          (List.map cover_repr r.Fb_lists.newly_acked
          = List.map cover_repr_ref rr.SBR.newly_acked);
        expect "newly_sacked"
          (List.map cover_repr r.Fb_lists.newly_sacked
          = List.map cover_repr_ref rr.SBR.newly_sacked);
        expect "newly_lost"
          (List.map S.to_int r.Fb_lists.newly_lost
          = List.map S.to_int rr.SBR.newly_lost)
    | 5 ->
        let lp = SB.lost_pending sb in
        expect "lost_pending"
          (List.map S.to_int lp = List.map S.to_int (SBR.lost_pending sbr));
        List.iter (fun s -> both_send s ~is_retx:true) lp
    | 6 ->
        let timeout = 0.001 +. Engine.Rng.float rng 0.05 in
        expect "mark_expired"
          (List.map S.to_int (SB.mark_expired sb ~now:!now ~timeout)
          = List.map S.to_int (SBR.mark_expired sbr ~now:!now ~timeout))
    | _ ->
        let una = S.to_int (SB.una sb) in
        let window = S.to_int (SB.next_seq sb) - una in
        let upto = S.of_int (una + Engine.Rng.int rng (window + 1)) in
        SB.abandon_below sb upto;
        SBR.abandon_below sbr upto);
    expect "una" (S.equal (SB.una sb) (SBR.una sbr));
    expect "next_seq" (S.equal (SB.next_seq sb) (SBR.next_seq sbr));
    expect "outstanding" (SB.outstanding sb = SBR.outstanding sbr);
    expect "in_flight" (SB.in_flight_bytes sb = SBR.in_flight_bytes sbr)
  done;
  let una = S.to_int (SB.una sb) and nxt = S.to_int (SB.next_seq sb) in
  for i = Stdlib.max 0 (una - 2) to nxt + 2 do
    let s = S.of_int i in
    expect "status" (SB.status sb s = SBR.status sbr s);
    expect "retx_count" (SB.retx_count sb s = SBR.retx_count sbr s);
    expect "first_sent_at" (SB.first_sent_at sb s = SBR.first_sent_at sbr s)
  done;
  expect "stats_sent" (SB.stats_sent sb = SBR.stats_sent sbr);
  expect "stats_retx" (SB.stats_retx sb = SBR.stats_retx sbr);
  expect "stats_acked" (SB.stats_acked sb = SBR.stats_acked sbr);
  !ok

let prop_differential_vs_reference =
  QCheck.Test.make
    ~name:"run-length scoreboard matches the frozen reference" ~count:250
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 120))
    (fun (seed, steps) -> differential_run ~seed ~steps)

(* Adversarial fragmentation: SACK every second packet of a large
   window in one feedback — the worst case for any run-length scheme.
   The representation must hold exactly one run per reported block (no
   super-linear blowup), infer the interleaved holes lost, and collapse
   back to zero runs once the cumulative ack sweeps the window. *)
let test_alternating_sack_fragmentation () =
  let n = 2000 in
  let sb = SB.create ~dupthresh:3 () in
  send_n sb n;
  let blocks = List.init (n / 2) (fun i -> blk ((2 * i) + 1) ((2 * i) + 2)) in
  let r = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks in
  Alcotest.(check int) "every block newly sacked" (n / 2)
    (List.length r.Fb_lists.newly_sacked);
  let sacked_runs, lost_runs = SB.runs_held sb in
  Alcotest.(check int) "one run per disjoint block" (n / 2) sacked_runs;
  Alcotest.(check bool) "lost runs bounded by holes" true
    (lost_runs <= n / 2);
  (* Holes with >= dupthresh sacked packets above them are lost: all
     even numbers except the last two. *)
  Alcotest.(check int) "holes inferred lost" ((n / 2) - 2)
    (List.length r.Fb_lists.newly_lost);
  let r2 = Fb_lists.on_feedback sb ~cum_ack:(S.of_int n) ~blocks:[] in
  Alcotest.(check int) "cum sweep acks the holes" (n / 2)
    (List.length r2.Fb_lists.newly_acked);
  Alcotest.(check (pair int int)) "runs collapse to nothing" (0, 0)
    (SB.runs_held sb);
  Alcotest.(check int) "nothing outstanding" 0 (SB.outstanding sb)

(* --- digest: staged order and parity with the reference ---------- *)

let test_digest_ordering () =
  (* The staged digest read back by index must be the reference's
     result, phase by phase: the cumulative-ack covers, then the SACK
     covers, each ascending (so the whole cover stage ascends), then the
     losses ascending; the counts must agree with the stage. *)
  let sb = SB.create () and sbr = SBR.create () in
  send_n sb 12;
  for i = 0 to 11 do
    SBR.on_send sbr ~seq:(S.of_int i)
      ~now:(float_of_int i *. 0.001)
      ~size:1000 ~is_retx:false
  done;
  let cum_ack = S.of_int 3 and blocks = [ blk 8 11; blk 5 6 ] in
  SB.digest sb ~cum_ack ~blocks;
  let staged =
    List.init (SB.fb_covers sb) (fun k ->
        (S.to_int (SB.cover_seq sb k), SB.cover_sent_at sb k,
         SB.cover_was_retx sb k))
  in
  let seqs = List.map (fun (s, _, _) -> s) staged in
  Alcotest.(check (list int)) "covers ascend: acks then sacks"
    [ 0; 1; 2; 5; 8; 9; 10 ] seqs;
  let r = SBR.on_feedback sbr ~cum_ack ~blocks in
  Alcotest.(check int) "fb_acked" (List.length r.SBR.newly_acked)
    (SB.fb_acked sb);
  Alcotest.(check int) "fb_sacked" (List.length r.SBR.newly_sacked)
    (SB.fb_sacked sb);
  Alcotest.(check bool) "covers match the reference" true
    (staged
    = List.map cover_repr_ref (r.SBR.newly_acked @ r.SBR.newly_sacked));
  Alcotest.(check (list int)) "losses match the reference, ascending"
    (List.map S.to_int r.SBR.newly_lost)
    (List.init (SB.fb_lost sb) (fun k -> S.to_int (SB.lost_seq sb k)));
  Alcotest.(check bool) "fb_cum_advanced" r.SBR.cum_advanced
    (SB.fb_cum_advanced sb);
  Alcotest.(check bool) "losses were actually inferred" true
    (SB.fb_lost sb > 0);
  Alcotest.(check bool) "reading past the stage is refused" true
    (try
       ignore (SB.cover_seq sb (SB.fb_covers sb));
       false
     with Invalid_argument _ -> true)

(* A warmed scoreboard digests LFN-shaped feedback without allocating:
   each feedback advances the cumulative ack by 100 and SACKs three
   blocks above it, leaving three holes below the dupthresh point (so
   every digest stages covers, merges runs and infers losses).  The
   feedback is prebuilt; only the digests are measured. *)
let test_digest_zero_alloc () =
  let rounds = 300 and step = 100 in
  let sb = SB.create ~capacity:((rounds + 1) * step) () in
  send_n sb ((rounds + 1) * step);
  let feedback =
    Array.init rounds (fun k ->
        let b = k * step in
        ( S.of_int b,
          [
            blk (b + 10) (b + 20); blk (b + 30) (b + 40); blk (b + 50) (b + 60);
          ] ))
  in
  let digest_rounds lo hi =
    for k = lo to hi - 1 do
      let cum_ack, blocks = feedback.(k) in
      SB.digest sb ~cum_ack ~blocks
    done
  in
  digest_rounds 0 10 (* warm-up: the scratch arrays reach their size *);
  (* per round: 70 acked + 30 sacked covers, three 10-packet holes lost *)
  Alcotest.(check (triple int int int)) "covers, sacks, losses per digest"
    (step, 30, 30)
    (SB.fb_covers sb, SB.fb_sacked sb, SB.fb_lost sb);
  let before = Gc.minor_words () in
  digest_rounds 10 rounds;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words per digest" 0.0
    (words /. float_of_int (rounds - 10))

(* The retransmission re-inference rule, pinned on both implementations:
   a number inferred lost and then retransmitted is reported lost again
   by the very next feedback with [dupthresh] SACKed numbers above it —
   phase 3 re-walks every hole from [snd_una], and a retransmission
   takes the number out of the lost set without recording that the
   repair is still in flight.  Whether a repair should get an RTT before
   it can be re-inferred is a protocol question for a later change; it
   would move the goldens (trunk_lfn at seed 1 retransmits 5,932 times
   for 1,451 drops). *)
let test_retx_reinferred () =
  let sb = SB.create () and sbr = SBR.create () in
  let send seq ~is_retx =
    SB.on_send sb ~seq:(S.of_int seq) ~now:0.0 ~size:1000 ~is_retx;
    SBR.on_send sbr ~seq:(S.of_int seq) ~now:0.0 ~size:1000 ~is_retx
  in
  for i = 0 to 9 do
    send i ~is_retx:false
  done;
  let lost cum blocks =
    let r = Fb_lists.on_feedback sb ~cum_ack:(S.of_int cum) ~blocks in
    let rr = SBR.on_feedback sbr ~cum_ack:(S.of_int cum) ~blocks in
    ( List.map S.to_int r.Fb_lists.newly_lost,
      List.map S.to_int rr.SBR.newly_lost )
  in
  Alcotest.(check (pair (list int) (list int))) "2 inferred lost" ([ 2 ], [ 2 ])
    (lost 2 [ blk 3 6 ]);
  send 2 ~is_retx:true;
  Alcotest.(check (pair (list int) (list int)))
    "2 inferred lost again after its retransmission" ([ 2 ], [ 2 ])
    (lost 2 [ blk 3 7 ])

let suite =
  [
    Alcotest.test_case "digest: staged order and parity" `Quick
      test_digest_ordering;
    Alcotest.test_case "sequencing" `Quick test_sequencing;
    Alcotest.test_case "out of order rejected" `Quick
      test_out_of_order_send_rejected;
    Alcotest.test_case "cum ack" `Quick test_cum_ack_advances;
    Alcotest.test_case "sack marks" `Quick test_sack_marks;
    Alcotest.test_case "loss inference" `Quick test_loss_inference_dupthresh;
    Alcotest.test_case "multiple holes" `Quick test_multiple_holes_inferred;
    Alcotest.test_case "retransmit resets" `Quick test_retransmit_resets;
    Alcotest.test_case "unknown retx rejected" `Quick
      test_retransmit_unknown_rejected;
    Alcotest.test_case "mark_expired" `Quick test_mark_expired;
    Alcotest.test_case "expiry selective" `Quick
      test_expiry_skips_sacked_and_fresh;
    Alcotest.test_case "abandon_below" `Quick test_abandon_below;
    Alcotest.test_case "in-flight bytes" `Quick test_in_flight_bytes;
    Alcotest.test_case "alternating-loss fragmentation bounded" `Quick
      test_alternating_sack_fragmentation;
    Alcotest.test_case "digest allocates nothing" `Quick
      test_digest_zero_alloc;
    Alcotest.test_case "retransmission re-inferred lost" `Quick
      test_retx_reinferred;
    QCheck_alcotest.to_alcotest prop_sacked_and_lost_disjoint;
    QCheck_alcotest.to_alcotest prop_una_monotone;
    QCheck_alcotest.to_alcotest prop_differential_vs_reference;
  ]
