type tile_trace = {
  tile : int;
  kernel : string;
  bb_path : int array;
  mem_addrs : int array array;
  accel_params : Mosaic_ir.Value.t array array array;
  send_dsts : int array array;
  dyn_instrs : int;
}

type t = { kernel : string; ntiles : int; tiles : tile_trace array }

let total_dyn_instrs t =
  Array.fold_left (fun acc tt -> acc + tt.dyn_instrs) 0 t.tiles

let total_mem_accesses t =
  Array.fold_left
    (fun acc tt ->
      acc
      + Array.fold_left (fun a addrs -> a + Array.length addrs) 0 tt.mem_addrs)
    0 t.tiles

let storage_bytes t =
  let control =
    Array.fold_left (fun acc tt -> acc + (4 * Array.length tt.bb_path)) 0 t.tiles
  in
  let memory =
    8 * total_mem_accesses t
    + Array.fold_left
        (fun acc tt ->
          acc
          + Array.fold_left
              (fun a invocations ->
                a
                + Array.fold_left
                    (fun b params -> b + (8 * Array.length params))
                    0 invocations)
              0 tt.accel_params)
        0 t.tiles
  in
  (control, memory)

let compressed_bytes t =
  Array.fold_left
    (fun (control, memory) tt ->
      let control = control + Bytes.length (Encode.encode_control tt.bb_path) in
      let memory =
        Array.fold_left
          (fun acc addrs ->
            if Array.length addrs = 0 then acc
            else acc + Bytes.length (Encode.encode_addrs addrs))
          memory tt.mem_addrs
      in
      (control, memory))
    (0, 0) t.tiles

let equal_tile a b =
  let arr2 eq x y =
    Array.length x = Array.length y && Array.for_all2 eq x y
  in
  a.tile = b.tile && a.kernel = b.kernel && a.dyn_instrs = b.dyn_instrs
  && a.bb_path = b.bb_path
  && arr2 (fun x y -> x = (y : int array)) a.mem_addrs b.mem_addrs
  && arr2 (fun x y -> x = (y : int array)) a.send_dsts b.send_dsts
  && arr2
       (arr2 (arr2 Mosaic_ir.Value.equal))
       a.accel_params b.accel_params

let equal a b =
  a.kernel = b.kernel && a.ntiles = b.ntiles
  && Array.length a.tiles = Array.length b.tiles
  && Array.for_all2 equal_tile a.tiles b.tiles

(* --- on-disk container ---

   Layout (all integers LEB128 varints unless noted):

     magic   "MSTR" (4 raw bytes)
     version varint (currently 1)
     digest  varint length + bytes (workload digest; "" when untagged)
     md5     16 raw bytes, MD5 of the payload that follows
     payload:
       label str, ntiles, tile-record count, then per tile:
         tile id, kernel str, dyn_instrs,
         framed Encode.encode_control of bb_path,
         mem-stream count,  framed Encode.encode_addrs per stream,
         accel-instr count, per instr: invocation count, per invocation:
           param count, per param: 1 tag byte (0 = Int, 1 = Float) +
           8 bytes little-endian (the int64 / IEEE-754 bits — exact),
         send-instr count,  framed Encode.encode_addrs per stream.

   The checksum makes truncation and bit rot a clean [Format_error]
   instead of an out-of-bounds decode; the version gate does the same for
   files written by a different layout. *)

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

let magic = "MSTR"

let format_version = 1

let add_string sink s =
  Encode.add_varint sink (String.length s);
  Encode.add_string sink s

let add_value sink v =
  match v with
  | Mosaic_ir.Value.Int i ->
      Encode.add_char sink '\000';
      Encode.add_int64_le sink i
  | Mosaic_ir.Value.Float f ->
      Encode.add_char sink '\001';
      Encode.add_int64_le sink (Int64.bits_of_float f)

let add_tile sink tt =
  Encode.add_varint sink tt.tile;
  add_string sink tt.kernel;
  Encode.add_varint sink tt.dyn_instrs;
  Encode.add_framed sink Encode.add_control tt.bb_path;
  Encode.add_varint sink (Array.length tt.mem_addrs);
  Array.iter (Encode.add_framed sink Encode.add_addrs) tt.mem_addrs;
  Encode.add_varint sink (Array.length tt.accel_params);
  Array.iter
    (fun invocations ->
      Encode.add_varint sink (Array.length invocations);
      Array.iter
        (fun params ->
          Encode.add_varint sink (Array.length params);
          Array.iter (add_value sink) params)
        invocations)
    tt.accel_params;
  Encode.add_varint sink (Array.length tt.send_dsts);
  Array.iter (Encode.add_framed sink Encode.add_addrs) tt.send_dsts

(* About two bytes an entry, which most traces stay under, so the sink
   seldom grows; its untouched tail costs no memory. *)
let size_hint t =
  Array.fold_left
    (fun acc tt ->
      let streams =
        Array.fold_left (fun n s -> n + 8 + (2 * Array.length s)) 0
      in
      acc + 64
      + (2 * Array.length tt.bb_path)
      + streams tt.mem_addrs + streams tt.send_dsts
      + Array.fold_left
          (fun n inv ->
            Array.fold_left
              (fun n ps -> n + 8 + (9 * Array.length ps))
              (n + 8) inv)
          0 tt.accel_params)
    4096 t.tiles

(* One pass into one sink: the header with a zeroed checksum, the payload,
   then the MD5 of the payload slice written over the zeros. *)
let encode ~digest t =
  let sink = Encode.sink (size_hint t + String.length digest) in
  Encode.add_string sink magic;
  Encode.add_varint sink format_version;
  add_string sink digest;
  let md5_at = Encode.sink_length sink in
  Encode.add_string sink (String.make 16 '\000');
  let payload_at = Encode.sink_length sink in
  add_string sink t.kernel;
  Encode.add_varint sink t.ntiles;
  Encode.add_varint sink (Array.length t.tiles);
  Array.iter (add_tile sink) t.tiles;
  let buf = Encode.sink_buffer sink and len = Encode.sink_length sink in
  Bytes.blit_string
    (Digest.subbytes buf payload_at (len - payload_at))
    0 buf md5_at 16;
  sink

let to_bytes ?(digest = "") t = Encode.sink_contents (encode ~digest t)

(* Bounds-checked reader: any overrun is a [Format_error], never an
   [Invalid_argument] escaping from [Bytes]. *)
type reader = { data : Bytes.t; mutable pos : int }

let need r n =
  if r.pos + n > Bytes.length r.data then fail "truncated trace data"

let read_varint r =
  let v = ref 0 and shift = ref 0 in
  let continue = ref true in
  while !continue do
    need r 1;
    let byte = Char.code (Bytes.get r.data r.pos) in
    r.pos <- r.pos + 1;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  !v

let read_string r =
  let n = read_varint r in
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* A frame is decoded where it lies in [r.data]; [decode] never reads
   past the frame's end. *)
let read_framed r decode =
  let n = read_varint r in
  need r n;
  let v = decode r.data r.pos n in
  r.pos <- r.pos + n;
  v

let read_value r =
  need r 9;
  let tag = Bytes.get r.data r.pos in
  let bits = Bytes.get_int64_le r.data (r.pos + 1) in
  r.pos <- r.pos + 9;
  match tag with
  | '\000' -> Mosaic_ir.Value.Int bits
  | '\001' -> Mosaic_ir.Value.Float (Int64.float_of_bits bits)
  | c -> fail "bad value tag %C" c

(* Counts drive [Array.make] + explicit loops (not [Array.init], whose
   evaluation order is unspecified) because decode order is the wire
   order. *)
let read_tile r =
  let tile = read_varint r in
  let kernel = read_string r in
  let dyn_instrs = read_varint r in
  let bb_path = read_framed r Encode.decode_control_sub in
  let nmem = read_varint r in
  let mem_addrs = Array.make nmem [||] in
  for i = 0 to nmem - 1 do
    mem_addrs.(i) <- read_framed r Encode.decode_addrs_sub
  done;
  let naccel = read_varint r in
  let accel_params = Array.make naccel [||] in
  for i = 0 to naccel - 1 do
    let ninvoc = read_varint r in
    let invocations = Array.make ninvoc [||] in
    for j = 0 to ninvoc - 1 do
      let nparams = read_varint r in
      let params = Array.make nparams Mosaic_ir.Value.zero in
      for k = 0 to nparams - 1 do
        params.(k) <- read_value r
      done;
      invocations.(j) <- params
    done;
    accel_params.(i) <- invocations
  done;
  let nsend = read_varint r in
  let send_dsts = Array.make nsend [||] in
  for i = 0 to nsend - 1 do
    send_dsts.(i) <- read_framed r Encode.decode_addrs_sub
  done;
  { tile; kernel; bb_path; mem_addrs; accel_params; send_dsts; dyn_instrs }

let of_bytes data =
  let r = { data; pos = 0 } in
  if Bytes.length data < String.length magic then
    fail "not a MosaicSim trace (file too short)";
  let got_magic = Bytes.sub_string data 0 (String.length magic) in
  if got_magic <> magic then
    fail "not a MosaicSim trace (bad magic %S)" got_magic;
  r.pos <- String.length magic;
  let version = read_varint r in
  if version <> format_version then
    fail "unsupported trace format version %d (this build reads version %d)"
      version format_version;
  let digest = read_string r in
  need r 16;
  let md5 = Bytes.sub_string data r.pos 16 in
  r.pos <- r.pos + 16;
  if Digest.subbytes data r.pos (Bytes.length data - r.pos) <> md5 then
    fail "corrupt trace (payload checksum mismatch)";
  (* The checksum vouches for the payload, so decode errors past this point
     would be encoder bugs — still surfaced as Format_error, not a crash. *)
  let trace =
    try
      let kernel = read_string r in
      let ntiles = read_varint r in
      let n = read_varint r in
      let tiles = ref [] in
      for _ = 1 to n do
        tiles := read_tile r :: !tiles
      done;
      { kernel; ntiles; tiles = Array.of_list (List.rev !tiles) }
    with
    | Format_error _ as e -> raise e
    | Invalid_argument m | Failure m -> fail "malformed trace payload (%s)" m
  in
  (digest, trace)

let save ?(digest = "") t path =
  let sink = encode ~digest t in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output oc (Encode.sink_buffer sink) 0 (Encode.sink_length sink))

let load_with_digest path =
  let data =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        b)
  in
  of_bytes data

let load ?expect_digest path =
  let digest, t = load_with_digest path in
  (match expect_digest with
  | Some d when d <> digest ->
      fail "stale trace %s: workload digest %s, expected %s" path digest d
  | _ -> ());
  t

module Cursor = struct
  type cursor = {
    tt : tile_trace;
    mutable bb_pos : int;
    mem_pos : int array;  (** per static instruction id *)
    accel_pos : int array;
    send_pos : int array;
  }

  let create tt =
    {
      tt;
      bb_pos = 0;
      mem_pos = Array.make (Array.length tt.mem_addrs) 0;
      accel_pos = Array.make (Array.length tt.accel_params) 0;
      send_pos = Array.make (Array.length tt.send_dsts) 0;
    }

  let next_block c =
    if c.bb_pos >= Array.length c.tt.bb_path then None
    else begin
      let b = c.tt.bb_path.(c.bb_pos) in
      c.bb_pos <- c.bb_pos + 1;
      Some b
    end

  let next_block_id c =
    if c.bb_pos >= Array.length c.tt.bb_path then -1
    else begin
      let b = c.tt.bb_path.(c.bb_pos) in
      c.bb_pos <- c.bb_pos + 1;
      b
    end

  let peek_block c k =
    let pos = c.bb_pos + k in
    if pos >= Array.length c.tt.bb_path then None else Some c.tt.bb_path.(pos)

  (* Allocation-free peek for the per-cycle launch path: block ids are
     non-negative, so -1 signals an exhausted trace without the [Some]. *)
  let peek_block_id c k =
    let pos = c.bb_pos + k in
    if pos >= Array.length c.tt.bb_path then -1 else c.tt.bb_path.(pos)

  let blocks_consumed c = c.bb_pos

  let next_addr c ~instr_id =
    let addrs = c.tt.mem_addrs.(instr_id) in
    let pos = c.mem_pos.(instr_id) in
    if pos >= Array.length addrs then
      invalid_arg
        (Printf.sprintf "Trace.Cursor.next_addr: instr %d trace exhausted"
           instr_id);
    c.mem_pos.(instr_id) <- pos + 1;
    addrs.(pos)

  let next_accel_params c ~instr_id =
    let ps = c.tt.accel_params.(instr_id) in
    let pos = c.accel_pos.(instr_id) in
    if pos >= Array.length ps then
      invalid_arg
        (Printf.sprintf
           "Trace.Cursor.next_accel_params: instr %d trace exhausted" instr_id);
    c.accel_pos.(instr_id) <- pos + 1;
    ps.(pos)

  let next_send_dst c ~instr_id =
    let ds = c.tt.send_dsts.(instr_id) in
    let pos = c.send_pos.(instr_id) in
    if pos >= Array.length ds then
      invalid_arg
        (Printf.sprintf "Trace.Cursor.next_send_dst: instr %d trace exhausted"
           instr_id);
    c.send_pos.(instr_id) <- pos + 1;
    ds.(pos)
end
