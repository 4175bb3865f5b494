(* Qtp.Capabilities: negotiation semantics and codec. *)

module C = Qtp.Capabilities

let offer ?(planes = [ C.Standard ]) ?(rel = [ C.R_full ]) ?(g = 0.0)
    ?(pmr = 3) ?(pdl = 0.5) ?(ecn = false) () =
  {
    C.planes;
    reliability = rel;
    qos_target_bps = g;
    partial_max_retx = pmr;
    partial_deadline = pdl;
    ecn;
  }

let test_negotiate_prefers_initiator_order () =
  let i = offer ~planes:[ C.Light; C.Standard ] ~rel:[ C.R_partial; C.R_full ] () in
  let r = offer ~planes:[ C.Standard; C.Light ] ~rel:[ C.R_full; C.R_partial ] () in
  match C.negotiate ~initiator:i ~responder:r with
  | Ok a ->
      Alcotest.(check bool) "initiator plane preference wins" true
        (a.C.plane = C.Light);
      Alcotest.(check bool) "initiator reliability preference wins" true
        (a.C.mode = C.R_partial)
  | Error e -> Alcotest.fail e

let test_negotiate_no_common_plane () =
  let i = offer ~planes:[ C.Standard ] () in
  let r = offer ~planes:[ C.Light ] () in
  match C.negotiate ~initiator:i ~responder:r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_negotiate_no_common_reliability () =
  let i = offer ~rel:[ C.R_full ] () in
  let r = offer ~rel:[ C.R_none ] () in
  match C.negotiate ~initiator:i ~responder:r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_qos_target_capping () =
  let check ig rg expect =
    let i = offer ~g:ig () and r = offer ~g:rg () in
    match C.negotiate ~initiator:i ~responder:r with
    | Ok a -> Alcotest.(check (float 1e-9)) "capped" expect a.C.target_bps
    | Error e -> Alcotest.fail e
  in
  check 2e6 0.0 2e6;
  (* responder has no opinion *)
  check 2e6 1e6 1e6;
  (* responder caps *)
  check 1e6 2e6 1e6 (* responder cannot raise *)

let test_partial_params_strictest () =
  let i = offer ~pmr:5 ~pdl:1.0 () and r = offer ~pmr:2 ~pdl:2.0 () in
  match C.negotiate ~initiator:i ~responder:r with
  | Ok a ->
      Alcotest.(check int) "min retx" 2 a.C.max_retx;
      Alcotest.(check (float 1e-9)) "min deadline" 1.0 a.C.deadline
  | Error e -> Alcotest.fail e

let test_offer_codec_roundtrip () =
  let o =
    offer
      ~planes:[ C.Light; C.Standard ]
      ~rel:[ C.R_none; C.R_partial; C.R_full ]
      ~g:1.5e6 ~pmr:7 ~pdl:0.25 ()
  in
  match C.decode_offer (C.encode_offer o) with
  | Ok o' -> Alcotest.(check bool) "round trip" true (C.equal_offer o o')
  | Error e -> Alcotest.fail e

let test_agreed_codec_roundtrip () =
  let a =
    {
      C.plane = C.Light;
      mode = C.R_partial;
      target_bps = 3.0e6;
      max_retx = 4;
      deadline = 0.125;
      use_ecn = true;
    }
  in
  match C.decode_agreed (C.encode_agreed a) with
  | Ok a' -> Alcotest.(check bool) "round trip" true (C.equal_agreed a a')
  | Error e -> Alcotest.fail e

let test_decode_garbage () =
  (match C.decode_offer "not a capability string" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match C.decode_offer "qtp1-offer;planes=warp" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad plane accepted");
  match C.decode_agreed (C.encode_offer (offer ())) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "offer decoded as agreed"

let test_to_policy () =
  let base =
    {
      C.plane = C.Standard;
      mode = C.R_none;
      target_bps = 0.0;
      max_retx = 2;
      deadline = 0.3;
      use_ecn = false;
    }
  in
  Alcotest.(check bool) "none" true
    (C.to_policy base = Sack.Reliability.Unreliable);
  Alcotest.(check bool) "full" true
    (C.to_policy { base with C.mode = C.R_full } = Sack.Reliability.Full);
  match C.to_policy { base with C.mode = C.R_partial } with
  | Sack.Reliability.Partial { max_retx; deadline } ->
      Alcotest.(check int) "retx param" 2 max_retx;
      Alcotest.(check (float 1e-9)) "deadline param" 0.3 deadline
  | _ -> Alcotest.fail "expected partial"

let gen_offer =
  let open QCheck.Gen in
  let plane = oneofl [ C.Standard; C.Light ] in
  let mode = oneofl [ C.R_none; C.R_partial; C.R_full ] in
  let dedup l = List.sort_uniq Stdlib.compare l in
  map
    (fun (((planes, rels), ecn), (g, pmr, pdl)) ->
      {
        C.planes = dedup (List.filteri (fun i _ -> i < 2) planes);
        reliability = dedup (List.filteri (fun i _ -> i < 3) rels);
        qos_target_bps = Float.abs g;
        partial_max_retx = pmr;
        partial_deadline = Float.abs pdl;
        ecn;
      })
    (pair
       (pair
          (pair (list_size (int_range 1 2) plane)
             (list_size (int_range 1 3) mode))
          bool)
       (triple (float_bound_exclusive 1e7) (int_bound 10)
          (float_bound_exclusive 10.0)))

let prop_offer_roundtrip =
  QCheck.Test.make ~name:"offer codec round-trips" ~count:300
    (QCheck.make gen_offer)
    (fun o ->
      match C.decode_offer (C.encode_offer o) with
      | Ok o' -> C.equal_offer o o'
      | Error _ -> false)

let prop_negotiation_sound =
  QCheck.Test.make ~name:"negotiated result is within both offers" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_offer gen_offer))
    (fun (i, r) ->
      match C.negotiate ~initiator:i ~responder:r with
      | Error _ ->
          (* Must be a genuine incompatibility. *)
          not
            (List.exists (fun p -> List.mem p r.C.planes) i.C.planes
            && List.exists (fun m -> List.mem m r.C.reliability) i.C.reliability)
      | Ok a ->
          List.mem a.C.plane i.C.planes
          && List.mem a.C.plane r.C.planes
          && List.mem a.C.mode i.C.reliability
          && List.mem a.C.mode r.C.reliability
          && a.C.target_bps <= i.C.qos_target_bps)

(* The in-place decoders against the split-and-assoc decoders they
   replaced, on strings assembled from codec fragments, valid and not:
   every input must give the same record or the same error. *)
module Split_decoder = struct
  let ( let* ) = Result.bind

  let fields_of s =
    match String.split_on_char ';' s with
    | magic :: rest ->
        let kvs =
          List.filter_map
            (fun part ->
              match String.index_opt part '=' with
              | Some i ->
                  Some
                    ( String.sub part 0 i,
                      String.sub part (i + 1) (String.length part - i - 1) )
              | None -> None)
            rest
        in
        Ok (magic, kvs)
    | [] -> Error "empty capability string"

  let lookup kvs k =
    match List.assoc_opt k kvs with
    | Some v -> Ok v
    | None -> Error ("missing field: " ^ k)

  let parse_list of_string s =
    let items = if s = "" then [] else String.split_on_char ',' s in
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* x = of_string item in
        Ok (acc @ [ x ]))
      (Ok []) items

  let parse_float name s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error ("bad float in " ^ name)

  let parse_int name s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> Error ("bad int in " ^ name)

  let plane_of_string = function
    | "std" -> Ok C.Standard
    | "light" -> Ok C.Light
    | s -> Error ("unknown feedback plane: " ^ s)

  let mode_of_string = function
    | "none" -> Ok C.R_none
    | "partial" -> Ok C.R_partial
    | "full" -> Ok C.R_full
    | s -> Error ("unknown reliability mode: " ^ s)

  let decode_offer s =
    let* magic, kvs = fields_of s in
    if magic <> "qtp1-offer" then Error ("bad magic: " ^ magic)
    else
      let* planes_s = lookup kvs "planes" in
      let* planes = parse_list plane_of_string planes_s in
      let* rel_s = lookup kvs "rel" in
      let* reliability = parse_list mode_of_string rel_s in
      let* g_s = lookup kvs "g" in
      let* qos_target_bps = parse_float "g" g_s in
      let* pmr_s = lookup kvs "pmr" in
      let* partial_max_retx = parse_int "pmr" pmr_s in
      let* pdl_s = lookup kvs "pdl" in
      let* partial_deadline = parse_float "pdl" pdl_s in
      let* ecn_s = lookup kvs "ecn" in
      let* ecn_i = parse_int "ecn" ecn_s in
      if planes = [] then Error "offer with no feedback plane"
      else if reliability = [] then Error "offer with no reliability mode"
      else
        Ok
          {
            C.planes;
            reliability;
            qos_target_bps;
            partial_max_retx;
            partial_deadline;
            ecn = ecn_i <> 0;
          }

  let decode_agreed s =
    let* magic, kvs = fields_of s in
    if magic <> "qtp1-agreed" then Error ("bad magic: " ^ magic)
    else
      let* plane_s = lookup kvs "plane" in
      let* plane = plane_of_string plane_s in
      let* mode_s = lookup kvs "rel" in
      let* mode = mode_of_string mode_s in
      let* g_s = lookup kvs "g" in
      let* target_bps = parse_float "g" g_s in
      let* pmr_s = lookup kvs "pmr" in
      let* max_retx = parse_int "pmr" pmr_s in
      let* pdl_s = lookup kvs "pdl" in
      let* deadline = parse_float "pdl" pdl_s in
      let* ecn_s = lookup kvs "ecn" in
      let* ecn_i = parse_int "ecn" ecn_s in
      Ok
        {
          C.plane;
          mode;
          target_bps;
          max_retx;
          deadline;
          use_ecn = ecn_i <> 0;
        }
end

let gen_capability_string =
  let open QCheck.Gen in
  let fragment =
    oneofl
      [
        "qtp1-offer"; "qtp1-agreed"; "qtp1"; ";"; ";"; ";"; "="; "=";
        "planes"; "plane"; "rel"; "g"; "pmr"; "pdl"; "ecn"; "x"; "std";
        "light"; "none"; "partial"; "full"; "std,light"; "light,,std";
        ","; "1.5e6"; "0"; "3"; "-1"; "0x10"; "1_000"; "nan"; "inf"; "abc";
        "0.25"; " ";
      ]
  in
  let valid =
    oneofl
      [
        C.encode_offer (offer ~planes:[ C.Light; C.Standard ] ());
        C.encode_agreed
          {
            C.plane = C.Light;
            mode = C.R_partial;
            target_bps = 1e6;
            max_retx = 2;
            deadline = 0.5;
            use_ecn = true;
          };
      ]
  in
  (* a valid encoding with fragments spliced in, or fragments alone *)
  frequency
    [
      ( 1,
        map2
          (fun v (cut, extra) ->
            let cut = cut mod (String.length v + 1) in
            String.sub v 0 cut ^ String.concat "" extra
            ^ String.sub v cut (String.length v - cut))
          valid
          (pair nat (list_size (int_range 0 4) fragment)) );
      (1, map (String.concat "") (list_size (int_range 0 24) fragment));
    ]

let prop_decoders_match_split_decoders =
  QCheck.Test.make ~name:"in-place decoders match the split decoders"
    ~count:1000
    (QCheck.make ~print:(fun s -> s) gen_capability_string)
    (fun s ->
      (* compare, not (=): a NaN field must count as equal *)
      Stdlib.compare (C.decode_offer s) (Split_decoder.decode_offer s) = 0
      && Stdlib.compare (C.decode_agreed s) (Split_decoder.decode_agreed s)
         = 0)

let suite =
  [
    Alcotest.test_case "initiator preference" `Quick
      test_negotiate_prefers_initiator_order;
    Alcotest.test_case "no common plane" `Quick test_negotiate_no_common_plane;
    Alcotest.test_case "no common reliability" `Quick
      test_negotiate_no_common_reliability;
    Alcotest.test_case "qos capping" `Quick test_qos_target_capping;
    Alcotest.test_case "partial strictest" `Quick test_partial_params_strictest;
    Alcotest.test_case "offer codec" `Quick test_offer_codec_roundtrip;
    Alcotest.test_case "agreed codec" `Quick test_agreed_codec_roundtrip;
    Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
    Alcotest.test_case "to_policy" `Quick test_to_policy;
    QCheck_alcotest.to_alcotest prop_offer_roundtrip;
    QCheck_alcotest.to_alcotest prop_negotiation_sound;
    QCheck_alcotest.to_alcotest prop_decoders_match_split_decoders;
  ]
