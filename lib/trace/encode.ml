(* Varint plumbing (LEB128) with zig-zag for signed deltas. *)

(* [2v] for [v >= 0], [-2v - 1] otherwise, without a branch. *)
let[@inline] zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))

(* The exact inverse of [zigzag] for every int, including deltas of
   magnitude 2^61 or more, whose doubling in [zigzag] wraps. *)
let unzigzag v = (v lsr 1) lxor -(v land 1)

(* --- the byte sink encoders write into ---

   One growable byte buffer. Every write first makes room for the longest
   form it may take (a varint is at most 10 bytes), then stores bytes in
   place. *)

type sink = { mutable buf : Bytes.t; mutable len : int }

let sink capacity = { buf = Bytes.create (Stdlib.max capacity 16); len = 0 }

let sink_length s = s.len

let sink_buffer s = s.buf

let sink_contents s = Bytes.sub s.buf 0 s.len

let grow s need =
  let buf = Bytes.create (Stdlib.max (2 * Bytes.length s.buf) (s.len + need)) in
  Bytes.blit s.buf 0 buf 0 s.len;
  s.buf <- buf

let[@inline] reserve s need =
  if s.len + need > Bytes.length s.buf then grow s need

(* [v] as a varint at [p] in [buf], which has room for its 10 bytes;
   returns the position after it. *)
let[@inline] put buf p v =
  let p = ref p and v = ref v in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set buf !p (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr p;
    v := !v lsr 7
  done;
  Bytes.unsafe_set buf !p (Char.unsafe_chr !v);
  !p + 1

(* After [reserve s 10]. *)
let write_varint s v = s.len <- put s.buf s.len v

let add_varint s v =
  reserve s 10;
  write_varint s v

let add_char s c =
  reserve s 1;
  Bytes.unsafe_set s.buf s.len c;
  s.len <- s.len + 1

let add_string s str =
  let n = String.length str in
  reserve s n;
  Bytes.blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

let add_int64_le s x =
  reserve s 8;
  Bytes.set_int64_le s.buf s.len x;
  s.len <- s.len + 8

let varint_size v =
  let rec go n v = if v lsr 7 = 0 then n else go (n + 1) (v lsr 7) in
  go 1 v

(* The frame is written after a one-byte length and moved up in place when
   its length takes more bytes than that. *)
let add_framed s encode x =
  reserve s 1;
  let at = s.len in
  s.len <- at + 1;
  encode s x;
  let n = s.len - at - 1 in
  let w = varint_size n in
  if w > 1 then begin
    reserve s (w - 1);
    Bytes.blit s.buf (at + 1) s.buf (at + w) n
  end;
  s.len <- at;
  write_varint s n;
  s.len <- at + w + n

(* --- control-flow paths ---

   Format: varint count, then tokens. Token kinds:
   - 0, varint bid              : literal block id
   - 1, varint period, varint n : repeat the previous [period] symbols
                                  [n] more times *)

let max_period = 8

(* [period_of_bit.(1 lsl p)] is [p], for the periods [1 .. max_period]. *)
let period_of_bit =
  let t = Array.make ((1 lsl max_period) + 1) 0 in
  for p = 1 to max_period do
    t.(1 lsl p) <- p
  done;
  t

(* Bit [p] set when the symbol [p] back from [here] is [x]. *)
let[@inline] repeats (path : int array) here (x : int) p =
  Bool.to_int (Array.unsafe_get path (here - p) = x) lsl p

(* The stream encoders write a batch of entries at a time into room
   reserved for the batch's longest encoding, so their inner loops call
   nothing: a call would make the compiler keep the loop's state on the
   stack. *)
let batch = 4096

(* A token takes at most a tag and two varints. *)
let max_token = 21

let add_control s path =
  let n = Array.length path in
  add_varint s n;
  let i = ref 0 in
  while !i < n do
    reserve s (Stdlib.min batch (n - !i) * max_token);
    let buf = s.buf and p = ref s.len in
    let room = Bytes.length buf - max_token in
    while !i < n && !p <= room do
      let here = !i in
      let x = Array.unsafe_get path here in
      (* Periods whose first symbol repeats, as bits 1..max_period (the
         unrolled form assumes max_period = 8): often none, and then this
         is a literal without a scan. *)
      let candidates =
        if here >= max_period then
          repeats path here x 1 lor repeats path here x 2
          lor repeats path here x 3 lor repeats path here x 4
          lor repeats path here x 5 lor repeats path here x 6
          lor repeats path here x 7 lor repeats path here x 8
        else begin
          let c = ref 0 in
          for p = 1 to here do
            c := !c lor repeats path here x p
          done;
          !c
        end
      in
      (* Longest immediate repetition of a short period starting here: the
         candidates are tried from the shortest period up, and a longer one
         must cover strictly more to win. *)
      let best_period = ref 0 and best_cover = ref 0 in
      let rest = ref candidates in
      while !rest <> 0 do
        let bit = !rest land - !rest in
        rest := !rest lxor bit;
        let period = Array.unsafe_get period_of_bit bit in
        let j = ref (here + 1) in
        while
          !j < n
          && Array.unsafe_get path !j = Array.unsafe_get path (!j - period)
        do
          incr j
        done;
        let reps = !j - here in
        if reps >= period then begin
          let cover = reps / period * period in
          if cover > !best_cover then begin
            best_period := period;
            best_cover := cover
          end
        end
      done;
      if !best_cover >= 2 then begin
        Bytes.unsafe_set buf !p '\001';
        p := put buf (!p + 1) !best_period;
        p := put buf !p (!best_cover / !best_period);
        i := here + !best_cover
      end
      else begin
        Bytes.unsafe_set buf !p '\000';
        p := put buf (!p + 1) x;
        incr i
      end
    done;
    s.len <- !p
  done

let encode_control path =
  let s = sink 256 in
  add_control s path;
  sink_contents s

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

let add_addrs s addrs =
  let n = Array.length addrs in
  add_varint s n;
  let prev = ref 0 and k = ref 0 in
  while !k < n do
    let stop = Stdlib.min n (!k + batch) in
    reserve s (10 * (stop - !k));
    let buf = s.buf and p = ref s.len in
    for j = !k to stop - 1 do
      let a = Array.unsafe_get addrs j in
      p := put buf !p (zigzag (a - !prev));
      prev := a
    done;
    s.len <- !p;
    k := stop
  done

let encode_addrs addrs =
  let s = sink 256 in
  add_addrs s addrs;
  sink_contents s

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
