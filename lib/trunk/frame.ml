let header_bytes = 6

let default_frame_cap = 512

let max_user = (1 lsl 24) - 1

let max_len = 0xFFFF

let max_segment_payload = 0x10000

(* The check byte folds every header field, so a one-byte slip lands on
   a position whose check almost never validates; the magic keeps an
   all-zero window from self-validating. *)
let check_magic = 0x5A

let measure ~len = header_bytes + len

let[@inline always] check_of b0 b1 b2 b3 b4 =
  b0 lxor b1 lxor b2 lxor b3 lxor b4 lxor check_magic

let put_header buf ~pos ~user ~len =
  if user < 0 || user > max_user then invalid_arg "Trunk.Frame: user id";
  if len < 1 || len > max_len then invalid_arg "Trunk.Frame: length";
  if pos < 0 || pos + header_bytes > Bytes.length buf then
    invalid_arg "Trunk.Frame: header does not fit";
  let b0 = (user lsr 16) land 0xFF
  and b1 = (user lsr 8) land 0xFF
  and b2 = user land 0xFF
  and b3 = (len lsr 8) land 0xFF
  and b4 = len land 0xFF in
  Bytes.unsafe_set buf pos (Char.unsafe_chr b0);
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr b1);
  Bytes.unsafe_set buf (pos + 2) (Char.unsafe_chr b2);
  Bytes.unsafe_set buf (pos + 3) (Char.unsafe_chr b3);
  Bytes.unsafe_set buf (pos + 4) (Char.unsafe_chr b4);
  Bytes.unsafe_set buf (pos + 5) (Char.unsafe_chr (check_of b0 b1 b2 b3 b4))

let encode_into buf ~pos ~user ~src ~src_pos ~len =
  put_header buf ~pos ~user ~len;
  if pos + header_bytes + len > Bytes.length buf then
    invalid_arg "Trunk.Frame: payload does not fit";
  Bytes.blit src src_pos buf (pos + header_bytes) len;
  measure ~len

let[@inline always] byte buf i = Char.code (Bytes.unsafe_get buf i)

let user buf ~pos =
  (byte buf pos lsl 16) lor (byte buf (pos + 1) lsl 8) lor byte buf (pos + 2)

let length buf ~pos = (byte buf (pos + 3) lsl 8) lor byte buf (pos + 4)

let valid_at buf ~pos ~limit =
  pos >= 0
  && pos + header_bytes <= limit
  && limit <= Bytes.length buf
  &&
  let b0 = byte buf pos
  and b1 = byte buf (pos + 1)
  and b2 = byte buf (pos + 2)
  and b3 = byte buf (pos + 3)
  and b4 = byte buf (pos + 4) in
  byte buf (pos + 5) = check_of b0 b1 b2 b3 b4
  &&
  let len = (b3 lsl 8) lor b4 in
  len >= 1 && pos + header_bytes + len <= limit

(* Top-level tail recursion over immediate ints keeps the demux loop
   free of heap traffic — a ref cell, a flush closure, or even a local
   [let rec] capturing the callbacks would charge every segment
   delivery an allocation (without flambda they are all real). *)
let rec iter_go buf limit frame junk p junk_run =
  if p >= limit then begin
    if junk_run > 0 then junk ~bytes:junk_run
  end
  else if valid_at buf ~pos:p ~limit then begin
    if junk_run > 0 then junk ~bytes:junk_run;
    let u = user buf ~pos:p and l = length buf ~pos:p in
    frame ~user:u ~off:(p + header_bytes) ~len:l;
    iter_go buf limit frame junk (p + header_bytes + l) 0
  end
  else iter_go buf limit frame junk (p + 1) (junk_run + 1)

let iter buf ~pos ~len ~frame ~junk = iter_go buf (pos + len) frame junk pos 0
