(* Varint plumbing (LEB128) with zig-zag for signed deltas. *)

let put_varint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1

(* The exact inverse of [zigzag] for every int, including deltas of
   magnitude 2^61 or more, whose doubling in [zigzag] wraps. *)
let unzigzag v = (v lsr 1) lxor -(v land 1)

(* --- control-flow paths ---

   Format: varint count, then tokens. Token kinds:
   - 0, varint bid              : literal block id
   - 1, varint period, varint n : repeat the previous [period] symbols
                                  [n] more times *)

let max_period = 8

let encode_control path =
  let buf = Buffer.create 256 in
  let n = Array.length path in
  put_varint buf n;
  let i = ref 0 in
  while !i < n do
    (* Longest immediate repetition of a short period ending here. *)
    let best = ref None in
    for period = 1 to Stdlib.min max_period !i do
      (* count how many symbols from !i onward repeat the last [period] *)
      let reps = ref 0 in
      let j = ref !i in
      while !j < n && path.(!j) = path.(!j - period) do
        incr j;
        incr reps
      done;
      let full = !reps / period in
      if full >= 1 then
        match !best with
        | Some (_, best_cover) when full * period <= best_cover -> ()
        | _ -> best := Some (period, full * period)
    done;
    match !best with
    | Some (period, cover) when cover >= 2 ->
        Buffer.add_char buf '\001';
        put_varint buf period;
        put_varint buf (cover / period);
        i := !i + cover
    | _ ->
        Buffer.add_char buf '\000';
        put_varint buf path.(!i);
        incr i
  done;
  Buffer.to_bytes buf

(* Decoding is most of the cost of a warm trace-cache hit: millions of
   varints per trace. The decoders take the common short forms (a
   one-byte literal block id, an address delta of at most four bytes) in
   tail-recursive loops whose state stays in registers, without a branch
   per byte, and fall back to [read_varint] for everything else. A
   [cursor] carries the position between the two. Every read is checked
   against [limit], so a malformed stream fails with [Invalid_argument]
   and never reads outside [off, off + len). *)
type cursor = { bytes : Bytes.t; mutable pos : int; limit : int }

let cursor name bytes off len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg (Printf.sprintf "Encode.%s: bad range" name);
  { bytes; pos = off; limit = off + len }

let next_byte c =
  let p = c.pos in
  if p >= c.limit then invalid_arg "Encode: truncated stream";
  c.pos <- p + 1;
  Char.code (Bytes.unsafe_get c.bytes p)

let read_varint c =
  let v = ref 0 and shift = ref 0 in
  let continue = ref true in
  while !continue do
    let byte = next_byte c in
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  !v

(* One-byte literals (tag 0, then a block id below 128) as single 16-bit
   reads. Returns the index of the first entry it could not take, with
   [c.pos] at that entry's token. *)
let rec control_literals c out i p =
  if i < Array.length out && p <= c.limit - 2 then begin
    let w = Bytes.get_uint16_le c.bytes p in
    if w land 0x80ff = 0 then begin
      Array.unsafe_set out i (w lsr 8);
      control_literals c out (i + 1) (p + 2)
    end
    else begin
      c.pos <- p;
      i
    end
  end
  else begin
    c.pos <- p;
    i
  end

let decode_control_sub bytes off len =
  let c = cursor "decode_control_sub" bytes off len in
  let total = read_varint c in
  let out = Array.make total 0 in
  let filled = ref 0 in
  while !filled < total do
    filled := control_literals c out !filled c.pos;
    if !filled < total then
      match next_byte c with
      | 0 ->
          out.(!filled) <- read_varint c;
          incr filled
      | 1 ->
          let period = read_varint c in
          let reps = read_varint c in
          let n = reps * period in
          let src = !filled - period in
          if n > 0 && (period <= 0 || src < 0 || n > total - !filled) then
            invalid_arg "Encode.decode_control: repeat out of range";
          for k = !filled to !filled + n - 1 do
            Array.unsafe_set out k (Array.unsafe_get out (k - period))
          done;
          filled := !filled + Stdlib.max n 0
      | t ->
          invalid_arg
            (Printf.sprintf "Encode.decode_control: bad tag %C" (Char.chr t))
  done;
  out

let decode_control bytes = decode_control_sub bytes 0 (Bytes.length bytes)

(* --- address streams: zig-zag deltas --- *)

let encode_addrs addrs =
  let buf = Buffer.create 256 in
  put_varint buf (Array.length addrs);
  let prev = ref 0 in
  Array.iter
    (fun a ->
      put_varint buf (zigzag (a - !prev));
      prev := a)
    addrs;
  Buffer.to_bytes buf

(* Address deltas take one to three bytes in no predictable order, so a
   branch per byte mispredicts about once a word. Read four bytes as one
   word instead and find the terminating byte (the lowest one with its
   top bit clear) with bit arithmetic: [stops] has 0x80 set in every
   byte that could end the varint, and [stop] is the lowest of them.
   Returns the index of the first address it could not take, with
   [c.pos] at that delta and [last] holding the address before it. *)
let rec addrs_short c out last i p prev =
  let w =
    if i < Array.length out && p <= c.limit - 4 then
      Int32.to_int (Bytes.get_int32_le c.bytes p)
    else -1
  in
  let stops = lnot w land 0x8080_8080 in
  if stops = 0 then begin
    c.pos <- p;
    last := prev;
    i
  end
  else begin
    let stop = stops land -stops in
    let x = w land ((stop lsl 1) - 1) in
    let v =
      x land 0x7f
      lor ((x lsr 1) land 0x3f80)
      lor ((x lsr 2) land 0x1f_c000)
      lor ((x lsr 3) land 0xfe0_0000)
    in
    let addr = prev + unzigzag v in
    Array.unsafe_set out i addr;
    addrs_short c out last (i + 1)
      (p + 1
      + Bool.to_int (stops land 0x80 = 0)
      + Bool.to_int (stops land 0x8080 = 0)
      + Bool.to_int (stops land 0x80_8080 = 0))
      addr
  end

let decode_addrs_sub bytes off len =
  let c = cursor "decode_addrs_sub" bytes off len in
  let total = read_varint c in
  let out = Array.make total 0 in
  let last = ref 0 and i = ref 0 in
  while !i < total do
    i := addrs_short c out last !i c.pos !last;
    if !i < total then begin
      last := !last + unzigzag (read_varint c);
      out.(!i) <- !last;
      incr i
    end
  done;
  out

let decode_addrs bytes = decode_addrs_sub bytes 0 (Bytes.length bytes)
