(* List view of one [Sack.Scoreboard.digest]: the shape of
   [Sack.Scoreboard_ref.on_feedback]'s result, so the scoreboard tests
   and the differential comparisons check the staged digest against the
   reference case for case. *)

module SB = Sack.Scoreboard

type result = {
  newly_acked : SB.cover list;  (* cumulative-ack advance, ascending *)
  newly_sacked : SB.cover list;  (* new SACK coverage, ascending *)
  newly_lost : Packet.Serial.t list;  (* fresh loss inferences, ascending *)
  cum_advanced : bool;
}

let cover sb k =
  {
    SB.cov_seq = SB.cover_seq sb k;
    cov_sent_at = SB.cover_sent_at sb k;
    cov_was_retx = SB.cover_was_retx sb k;
  }

let on_feedback sb ~cum_ack ~blocks =
  SB.digest sb ~cum_ack ~blocks;
  let na = SB.fb_acked sb in
  {
    newly_acked = List.init na (cover sb);
    newly_sacked = List.init (SB.fb_sacked sb) (fun k -> cover sb (na + k));
    newly_lost = List.init (SB.fb_lost sb) (SB.lost_seq sb);
    cum_advanced = SB.fb_cum_advanced sb;
  }
