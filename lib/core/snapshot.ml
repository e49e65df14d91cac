(* A snapshot is the full timing state of a run at a visited cycle:
   per-tile core dumps, the memory hierarchy (tags/LRU/MSHR, directory,
   DRAM), the interleaver and NoC, and the accelerator manager — everything
   [Soc.run] mutates. All fields are pure data (no closures), so the disk
   container can Marshal the record; identity fields (kernels, dynamic
   instruction counts, profiling flag) let a resume reject a snapshot taken
   from a different workload or configuration shape. *)

module Core_tile = Mosaic_tile.Core_tile
module Hierarchy = Mosaic_memory.Hierarchy

type t = {
  cycle : int;
  stepped : int;
  finished : bool array;
  kernels : string array;  (** per-tile kernel names, for validation *)
  dyn_instrs : int array;  (** per-tile trace lengths, for validation *)
  profiled : bool;
  tiles : Core_tile.dump array;
  hier : Hierarchy.dump;
  inter : Interleaver.dump;
  noc : Noc.dump option;
  accel_active : int array;  (** finish cycles of in-flight invocations *)
  accel_invocations : int;
  accel_energy_pj : float;
  accel_busy : int array;
}

let ntiles s = Array.length s.tiles
let cycle s = s.cycle

(* --- On-disk container ---

   Layout: "MSNP" magic (4 raw bytes), one version byte, 16 raw bytes of
   MD5 over the payload, then the Marshal-encoded record. The checksum
   turns truncation and bit rot into a clean [Format_error]; the version
   byte does the same for files written by a different layout. Marshal is
   build-dependent, which is acceptable for checkpoints (they pair a run
   with its resume); the exchange format remains the trace container. *)

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

let magic = "MSNP"
(* 2: tile state as a slot-ring window dump, FIFO-stamped int heaps.
   3: caches as a pool of ways created on first use (per-set base and
   count, dirty bits as bytes). *)
let format_version = 3

let to_bytes s =
  let payload = Marshal.to_bytes s [] in
  let buf = Buffer.create (Bytes.length payload + 24) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr format_version);
  Buffer.add_string buf (Digest.bytes payload);
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let of_bytes data =
  let header = String.length magic + 1 + 16 in
  if Bytes.length data < String.length magic then
    fail "not a MosaicSim snapshot (file too short)";
  let got_magic = Bytes.sub_string data 0 (String.length magic) in
  if got_magic <> magic then
    fail "not a MosaicSim snapshot (bad magic %S)" got_magic;
  if Bytes.length data < header then fail "truncated snapshot header";
  let version = Char.code (Bytes.get data (String.length magic)) in
  if version <> format_version then
    fail "unsupported snapshot format version %d (this build reads version %d)"
      version format_version;
  let md5 = Bytes.sub_string data (String.length magic + 1) 16 in
  let payload = Bytes.sub data header (Bytes.length data - header) in
  if Digest.bytes payload <> md5 then
    fail "corrupt snapshot (payload checksum mismatch)";
  try (Marshal.from_bytes payload 0 : t)
  with Failure m | Invalid_argument m -> fail "malformed snapshot payload (%s)" m

let save s path =
  let bytes = to_bytes s in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc bytes)

let load path =
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
