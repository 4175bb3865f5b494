(* Sack.Reliability: policy-driven retransmission decisions and forward
   points. *)

module SB = Sack.Scoreboard
module RL = Sack.Reliability
module S = Packet.Serial

let blk a b = Sack.Blocks.make (S.of_int a) (S.of_int b)

let setup policy =
  let sb = SB.create () in
  let rl = RL.create policy ~scoreboard:sb () in
  (sb, rl)

let send_n sb n =
  for i = 0 to n - 1 do
    SB.on_send sb ~seq:(S.of_int i)
      ~now:(float_of_int i *. 0.001)
      ~size:1000 ~is_retx:false
  done

let infer_loss sb =
  (* Make 0 lost via SACK of 1..5. *)
  let r = Fb_lists.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 6 ] in
  r.Fb_lists.newly_lost

let test_full_retransmits () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  (match RL.next_decision rl ~now:0.02 with
  | RL.Retransmit s -> Alcotest.(check int) "retransmit 0" 0 (S.to_int s)
  | RL.Fresh_data -> Alcotest.fail "expected retransmit");
  (* Honour it; queue must then be empty. *)
  SB.on_send sb ~seq:(S.of_int 0) ~now:0.02 ~size:1000 ~is_retx:true;
  match RL.next_decision rl ~now:0.03 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "queue should be drained"

let test_unreliable_abandons () =
  let sb, rl = setup RL.Unreliable in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  Alcotest.(check int) "abandoned immediately" 1 (RL.abandoned rl);
  (match RL.next_decision rl ~now:0.02 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "unreliable never retransmits");
  (* Forward point passes the abandoned hole and the sacked run. *)
  let fwd = RL.fwd_point rl ~highest_sent:(SB.next_seq sb) in
  Alcotest.(check int) "fwd past hole and sacked" 6 (S.to_int fwd)

let test_partial_respects_max_retx () =
  let sb, rl = setup (RL.Partial { max_retx = 1; deadline = 100.0 }) in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  (match RL.next_decision rl ~now:0.02 with
  | RL.Retransmit s ->
      SB.on_send sb ~seq:s ~now:0.02 ~size:1000 ~is_retx:true
  | RL.Fresh_data -> Alcotest.fail "first retransmit allowed");
  (* The retransmission is lost too. *)
  ignore (SB.mark_expired sb ~now:10.0 ~timeout:1.0);
  RL.on_losses rl ~now:10.0 [ S.of_int 0 ];
  (match RL.next_decision rl ~now:10.0 with
  | RL.Fresh_data -> Alcotest.(check int) "gave up" 1 (RL.abandoned rl)
  | RL.Retransmit _ -> Alcotest.fail "max_retx exceeded")

let test_partial_respects_deadline () =
  let sb, rl = setup (RL.Partial { max_retx = 10; deadline = 0.5 }) in
  send_n sb 6;
  (* Loss detected late: the segment (sent at ~0) is already past its
     deadline when the opportunity arises. *)
  RL.on_losses rl ~now:1.0 (infer_loss sb);
  match RL.next_decision rl ~now:1.0 with
  | RL.Fresh_data -> Alcotest.(check int) "abandoned by deadline" 1 (RL.abandoned rl)
  | RL.Retransmit _ -> Alcotest.fail "deadline exceeded"

let test_stale_queue_entries_skipped () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  (* The hole heals (late arrival -> cum advance) before the sender acts. *)
  SB.digest sb ~cum_ack:(S.of_int 6) ~blocks:[];
  match RL.next_decision rl ~now:0.02 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "acked seq must not be retransmitted"

let test_duplicate_loss_reports_queued_once () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  let lost = infer_loss sb in
  RL.on_losses rl ~now:0.01 lost;
  RL.on_losses rl ~now:0.02 lost;
  Alcotest.(check int) "queued once" 1 (RL.retransmissions_queued rl)

let test_full_fwd_point_is_una () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  SB.digest sb ~cum_ack:(S.of_int 2) ~blocks:[ blk 4 6 ];
  (* Hole at 2..3 not abandoned under Full: receiver must wait. *)
  let fwd = RL.fwd_point rl ~highest_sent:(SB.next_seq sb) in
  Alcotest.(check int) "fwd = una" 2 (S.to_int fwd)

let test_policy_pp () =
  Alcotest.(check string) "pp full" "full"
    (Format.asprintf "%a" RL.pp_policy RL.Full);
  Alcotest.(check string) "pp unreliable" "unreliable"
    (Format.asprintf "%a" RL.pp_policy RL.Unreliable)

let suite =
  [
    Alcotest.test_case "full retransmits" `Quick test_full_retransmits;
    Alcotest.test_case "unreliable abandons" `Quick test_unreliable_abandons;
    Alcotest.test_case "partial max_retx" `Quick test_partial_respects_max_retx;
    Alcotest.test_case "partial deadline" `Quick test_partial_respects_deadline;
    Alcotest.test_case "stale queue skipped" `Quick
      test_stale_queue_entries_skipped;
    Alcotest.test_case "dedup loss reports" `Quick
      test_duplicate_loss_reports_queued_once;
    Alcotest.test_case "full fwd = una" `Quick test_full_fwd_point_is_una;
    Alcotest.test_case "policy pp" `Quick test_policy_pp;
  ]
