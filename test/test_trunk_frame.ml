(* Trunk.Frame: the sub-frame codec — round-trip, header corruption
   rejection, truncation and resync without desync, and the zero-
   allocation pack/demux fast path. *)

module F = Trunk.Frame

(* Deterministic payload: byte [o] of a frame seeded [s] is a pure
   function of both, so parsed payloads can be checked byte-for-byte
   without carrying the originals around. *)
let fill_payload buf ~pos ~len ~seed =
  for i = 0 to len - 1 do
    Bytes.unsafe_set buf (pos + i)
      (Char.unsafe_chr ((seed + (i * 31)) land 0xff))
  done

let payload_ok buf ~pos ~len ~seed =
  let ok = ref true in
  for i = 0 to len - 1 do
    if Char.code (Bytes.get buf (pos + i)) <> (seed + (i * 31)) land 0xff then
      ok := false
  done;
  !ok

(* Encode a list of (user, len) frames back to back from position 0;
   returns the total bytes used. *)
let encode_all buf frames =
  let scratch = Bytes.create 0x10000 in
  List.fold_left
    (fun pos (user, len) ->
      fill_payload scratch ~pos:0 ~len ~seed:(user + len);
      pos + F.encode_into buf ~pos ~user ~src:scratch ~src_pos:0 ~len)
    0 frames

let parse buf ~pos ~len =
  let frames = ref [] and junk = ref 0 in
  F.iter buf ~pos ~len
    ~frame:(fun ~user ~off ~len ->
      frames := (user, off, len) :: !frames)
    ~junk:(fun ~bytes -> junk := !junk + bytes);
  (List.rev !frames, !junk)

let gen_frames =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair
         (oneof [ int_range 0 5; int_range 0 F.max_user ])
         (int_range 1 300)))

let prop_roundtrip =
  QCheck.Test.make ~name:"frame pack -> iter is identity (junk = 0)"
    ~count:300 (QCheck.make gen_frames) (fun frames ->
      let total =
        List.fold_left (fun n (_, len) -> n + F.measure ~len) 0 frames
      in
      let buf = Bytes.create total in
      let used = encode_all buf frames in
      let parsed, junk = parse buf ~pos:0 ~len:used in
      used = total && junk = 0
      && List.length parsed = List.length frames
      && List.for_all2
           (fun (user, len) (pu, off, pl) ->
             pu = user && pl = len
             && payload_ok buf ~pos:off ~len ~seed:(user + len))
           frames parsed)

let prop_header_byte_flip_rejected =
  (* The check byte folds every header field, so changing ANY single
     header byte (to a different value) must make the frame invalid —
     there is no header bit the parser takes on faith. *)
  QCheck.Test.make ~name:"any header byte flip invalidates the frame"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (int_range 0 F.max_user) (int_range 1 64))
           (pair (int_range 0 (F.header_bytes - 1)) (int_range 1 255))))
    (fun ((user, len), (victim, delta)) ->
      let buf = Bytes.create (F.measure ~len) in
      let scratch = Bytes.create len in
      fill_payload scratch ~pos:0 ~len ~seed:user;
      let used = F.encode_into buf ~pos:0 ~user ~src:scratch ~src_pos:0 ~len in
      let orig = Char.code (Bytes.get buf victim) in
      Bytes.set buf victim (Char.chr ((orig + delta) land 0xff));
      not (F.valid_at buf ~pos:0 ~limit:used))

let three_frames () =
  (* Zero payloads: no window inside the payload can self-validate (an
     all-zero header needs check byte 0x5A and length >= 1). *)
  let frames = [ (3, 40); (7, 25); (12, 60) ] in
  let total = List.fold_left (fun n (_, l) -> n + F.measure ~len:l) 0 frames in
  let buf = Bytes.create total in
  let zero = Bytes.make 64 '\x00' in
  let _ =
    List.fold_left
      (fun pos (user, len) ->
        pos + F.encode_into buf ~pos ~user ~src:zero ~src_pos:0 ~len)
      0 frames
  in
  (buf, total)

let test_truncation_no_desync () =
  (* Cut anywhere inside the third frame: the first two frames still
     parse, every remaining byte is reported as junk (the truncated
     header cannot validate — its payload no longer fits), and the
     parser neither throws nor reads past the limit. *)
  let buf, total = three_frames () in
  let f2_end = F.measure ~len:40 + F.measure ~len:25 in
  for cut = f2_end to total - 1 do
    let parsed, junk = parse buf ~pos:0 ~len:cut in
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "frames at cut %d" cut)
      [ (3, F.header_bytes, 40); (7, f2_end - 25, 25) ]
      parsed;
    Alcotest.(check int)
      (Printf.sprintf "junk at cut %d" cut)
      (cut - f2_end) junk
  done

let test_resync_after_garbage () =
  (* A garbage prefix (0xFF bytes never self-validate: their check byte
     would have to be 0xA5) must be counted as junk, after which the
     parser re-locks on the genuine frame — 1-byte resync, no loss. *)
  let len = 10 and user = 7 in
  let zero = Bytes.make len '\x00' in
  for garbage = 1 to 17 do
    let buf = Bytes.make (garbage + F.measure ~len) '\xFF' in
    let _ =
      F.encode_into buf ~pos:garbage ~user ~src:zero ~src_pos:0 ~len
    in
    let parsed, junk = parse buf ~pos:0 ~len:(Bytes.length buf) in
    Alcotest.(check int) (Printf.sprintf "junk run %d" garbage) garbage junk;
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "frame after %dB of garbage" garbage)
      [ (user, garbage + F.header_bytes, len) ]
      parsed
  done

let test_header_bounds_rejected () =
  let buf = Bytes.create 64 in
  let bad f = Alcotest.(check bool) "rejected" true
      (try f (); false with Invalid_argument _ -> true)
  in
  bad (fun () -> F.put_header buf ~pos:0 ~user:(-1) ~len:5);
  bad (fun () -> F.put_header buf ~pos:0 ~user:(F.max_user + 1) ~len:5);
  bad (fun () -> F.put_header buf ~pos:0 ~user:0 ~len:0);
  bad (fun () -> F.put_header buf ~pos:0 ~user:0 ~len:(F.max_len + 1));
  bad (fun () -> F.put_header buf ~pos:60 ~user:0 ~len:5)

let test_pack_demux_zero_alloc () =
  (* Mirror of the wire codec's bar: packing 8 sub-frames into a
     segment buffer and demultiplexing them back allocates nothing once
     warm. *)
  let src = Bytes.make 256 'x' in
  let buf = Bytes.create F.max_segment_payload in
  let digest = ref 0 in
  (* Callbacks and buffers hoisted out of the loop: a closure built per
     iteration would charge the measurement for the harness. *)
  let on_frame ~user ~off ~len = digest := !digest lxor (user + off + len) in
  let on_junk ~bytes = digest := !digest + (bytes * 1_000_000) in
  let stride = F.measure ~len:256 in
  let spin iters =
    for _ = 1 to iters do
      for u = 0 to 7 do
        ignore
          (F.encode_into buf ~pos:(u * stride) ~user:u ~src ~src_pos:0
             ~len:256)
      done;
      F.iter buf ~pos:0 ~len:(8 * stride) ~frame:on_frame ~junk:on_junk
    done
  in
  spin 100 (* warm-up: any one-time boxing *);
  let iters = 10_000 in
  let before = Gc.minor_words () in
  spin iters;
  let per_op = (Gc.minor_words () -. before) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words/op (digest %x)" per_op (!digest land 0xFFFF))
    true (per_op < 1.0)

let suite =
  [
    Alcotest.test_case "truncation keeps earlier frames, no desync" `Quick
      test_truncation_no_desync;
    Alcotest.test_case "resync after garbage prefix" `Quick
      test_resync_after_garbage;
    Alcotest.test_case "header bounds rejected" `Quick
      test_header_bounds_rejected;
    Alcotest.test_case "pack/demux allocates nothing" `Quick
      test_pack_demux_zero_alloc;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_byte_flip_rejected;
  ]
