type feedback_plane = Standard | Light

type reliability_mode = R_none | R_partial | R_full

type offer = {
  planes : feedback_plane list;
  reliability : reliability_mode list;
  qos_target_bps : float;
  partial_max_retx : int;
  partial_deadline : float;
  ecn : bool;
}

type agreed = {
  plane : feedback_plane;
  mode : reliability_mode;
  target_bps : float;
  max_retx : int;
  deadline : float;
  use_ecn : bool;
}

let plane_to_string = function Standard -> "std" | Light -> "light"

let plane_of_string = function
  | "std" -> Ok Standard
  | "light" -> Ok Light
  | s -> Error ("unknown feedback plane: " ^ s)

let mode_to_string = function
  | R_none -> "none"
  | R_partial -> "partial"
  | R_full -> "full"

let mode_of_string = function
  | "none" -> Ok R_none
  | "partial" -> Ok R_partial
  | "full" -> Ok R_full
  | s -> Error ("unknown reliability mode: " ^ s)

let pp_plane fmt p = Format.pp_print_string fmt (plane_to_string p)

let pp_mode fmt m = Format.pp_print_string fmt (mode_to_string m)

let pp_agreed fmt a =
  Format.fprintf fmt "plane=%a rel=%a g=%.0fbps retx<=%d deadline=%.2fs%s"
    pp_plane a.plane pp_mode a.mode a.target_bps a.max_retx a.deadline
    (if a.use_ecn then " ecn" else "")

let first_common pref supported =
  List.find_opt (fun x -> List.mem x supported) pref

let negotiate ~initiator ~responder =
  match first_common initiator.planes responder.planes with
  | None -> Error "no common feedback plane"
  | Some plane -> (
      match first_common initiator.reliability responder.reliability with
      | None -> Error "no common reliability mode"
      | Some mode ->
          let target_bps =
            if responder.qos_target_bps <= 0.0 then initiator.qos_target_bps
            else Float.min initiator.qos_target_bps responder.qos_target_bps
          in
          Ok
            {
              plane;
              mode;
              target_bps;
              max_retx =
                Stdlib.min initiator.partial_max_retx
                  responder.partial_max_retx;
              deadline =
                Float.min initiator.partial_deadline
                  responder.partial_deadline;
              use_ecn = initiator.ecn && responder.ecn;
            })

(* The textual encoding: "qtp1;<k>=<v>;…".  Lists are comma-separated,
   preference order preserved. *)

let magic_offer = "qtp1-offer"
let magic_agreed = "qtp1-agreed"

let encode_offer o =
  Printf.sprintf "%s;planes=%s;rel=%s;g=%.17g;pmr=%d;pdl=%.17g;ecn=%d"
    magic_offer
    (String.concat "," (List.map plane_to_string o.planes))
    (String.concat "," (List.map mode_to_string o.reliability))
    o.qos_target_bps o.partial_max_retx o.partial_deadline
    (if o.ecn then 1 else 0)

(* Decoding looks fields up in place.  The value of [key] is the text
   after the first '=' of the first field after the magic whose text
   before that '=' is [key] -- what splitting the string on ';' and '='
   into an association list gave, without building the list.  Errors
   leave through [Decode] and become the [Error] of the entry point. *)

exception Decode of string

(* End of the field starting at [i]: the next ';' or the string's end. *)
let rec field_end s i =
  if i >= String.length s || s.[i] = ';' then i else field_end s (i + 1)

(* [p] occurs in [s] at [i]; the caller checked the length. *)
let rec occurs_at s i p k =
  k >= String.length p || (s.[i + k] = p.[k] && occurs_at s i p (k + 1))

(* Start of [key]'s value in the fields from the one starting at [i]
   on, or -1.  Keys contain no '='. *)
let rec value_from s key i =
  let stop = field_end s i and n = String.length key in
  if i + n < stop && s.[i + n] = '=' && occurs_at s i key 0 then i + n + 1
  else if stop >= String.length s then -1
  else value_from s key (stop + 1)

let check_magic s magic =
  let m = field_end s 0 in
  if not (m = String.length magic && occurs_at s 0 magic 0) then
    raise (Decode ("bad magic: " ^ String.sub s 0 m))

let field s key =
  let m = field_end s 0 in
  let v = if m >= String.length s then -1 else value_from s key (m + 1) in
  if v < 0 then raise (Decode ("missing field: " ^ key))
  else String.sub s v (field_end s v - v)

let ok = function Ok v -> v | Error e -> raise (Decode e)

let float_field s key =
  match float_of_string_opt (field s key) with
  | Some f -> f
  | None -> raise (Decode ("bad float in " ^ key))

let int_field s key =
  match int_of_string_opt (field s key) with
  | Some i -> i
  | None -> raise (Decode ("bad int in " ^ key))

(* List items in order, the first bad one failing the whole. *)
let list_field of_string s key =
  match field s key with
  | "" -> []
  | v -> List.map (fun item -> ok (of_string item)) (String.split_on_char ',' v)

let decode_offer s =
  match
    check_magic s magic_offer;
    let planes = list_field plane_of_string s "planes" in
    let reliability = list_field mode_of_string s "rel" in
    let qos_target_bps = float_field s "g" in
    let partial_max_retx = int_field s "pmr" in
    let partial_deadline = float_field s "pdl" in
    let ecn = int_field s "ecn" <> 0 in
    if planes = [] then raise (Decode "offer with no feedback plane");
    if reliability = [] then raise (Decode "offer with no reliability mode");
    {
      planes;
      reliability;
      qos_target_bps;
      partial_max_retx;
      partial_deadline;
      ecn;
    }
  with
  | o -> Ok o
  | exception Decode e -> Error e

let encode_agreed a =
  Printf.sprintf "%s;plane=%s;rel=%s;g=%.17g;pmr=%d;pdl=%.17g;ecn=%d"
    magic_agreed (plane_to_string a.plane) (mode_to_string a.mode)
    a.target_bps a.max_retx a.deadline
    (if a.use_ecn then 1 else 0)

let decode_agreed s =
  match
    check_magic s magic_agreed;
    let plane = ok (plane_of_string (field s "plane")) in
    let mode = ok (mode_of_string (field s "rel")) in
    let target_bps = float_field s "g" in
    let max_retx = int_field s "pmr" in
    let deadline = float_field s "pdl" in
    let use_ecn = int_field s "ecn" <> 0 in
    { plane; mode; target_bps; max_retx; deadline; use_ecn }
  with
  | a -> Ok a
  | exception Decode e -> Error e

let to_policy a =
  match a.mode with
  | R_none -> Sack.Reliability.Unreliable
  | R_partial ->
      Sack.Reliability.Partial { max_retx = a.max_retx; deadline = a.deadline }
  | R_full -> Sack.Reliability.Full

let equal_offer (a : offer) (b : offer) =
  a.planes = b.planes && a.reliability = b.reliability
  && a.qos_target_bps = b.qos_target_bps
  && a.partial_max_retx = b.partial_max_retx
  && a.partial_deadline = b.partial_deadline
  && a.ecn = b.ecn

let equal_agreed (a : agreed) (b : agreed) =
  a.plane = b.plane && a.mode = b.mode && a.target_bps = b.target_bps
  && a.max_retx = b.max_retx
  && a.deadline = b.deadline
  && a.use_ecn = b.use_ecn
