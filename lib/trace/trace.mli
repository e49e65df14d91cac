(** Dynamic traces — the output of the Dynamic Trace Generator (DTG).

    The paper's instrumented native run writes two files per kernel: the
    taken control-flow path (a sequence of basic-block ids) and the address
    stream of every load/store. MosaicSim's accelerator extension adds the
    parameters of each accelerator invocation. Traces here carry exactly
    that, per SPMD tile. *)

type tile_trace = {
  tile : int;
  kernel : string;  (** the kernel this tile executed (tiles may differ) *)
  bb_path : int array;  (** basic-block ids in execution order *)
  mem_addrs : int array array;
      (** indexed by static instruction id; the byte addresses touched by
          that load/store/atomic, in occurrence order *)
  accel_params : Mosaic_ir.Value.t array array array;
      (** indexed by static instruction id; one parameter vector per
          dynamic invocation of that accelerator-call instruction *)
  send_dsts : int array array;
      (** indexed by static instruction id; destination tile of each
          dynamic occurrence of that send instruction *)
  dyn_instrs : int;  (** total dynamic instructions executed by this tile *)
}

type t = {
  kernel : string;  (** label for the run (the user-facing kernel name) *)
  ntiles : int;
  tiles : tile_trace array;
}

(** Total dynamic instructions across all tiles. *)
val total_dyn_instrs : t -> int

(** Total dynamic memory accesses across all tiles. *)
val total_mem_accesses : t -> int

(** On-disk footprint estimate using the paper's encoding: 4 bytes per
    control-flow entry, 8 bytes per memory-trace entry (address), 8 bytes
    per accelerator parameter. Returns (control_bytes, memory_bytes). *)
val storage_bytes : t -> int * int

(** Compressed footprint under the {!Encode} stream encoders:
    (control_bytes, memory_bytes). The §VI-B counterpart of
    {!storage_bytes}. *)
val compressed_bytes : t -> int * int

(** Structural equality, exact on accelerator parameters (NaN floats
    compare equal to themselves, per [Value.equal]). *)
val equal : t -> t -> bool

(** {1 Serialization}

    A versioned binary container built on the {!Encode} stream encoders:
    a ["MSTR"] magic, a format version, an optional workload digest (used
    by {!Store} to detect stale cache entries), an MD5 checksum of the
    payload, then the per-tile streams. Exact and build-independent —
    unlike the Marshal encoding it replaced, a file written by one build
    loads in any other or fails loudly. *)

(** Raised by {!load}/{!of_bytes} on a bad magic, an unsupported format
    version, a truncated or corrupted payload, or a workload-digest
    mismatch. The message says which. *)
exception Format_error of string

(** Container identity, for [mosaicsim version] and run manifests. *)
val magic : string

val format_version : int

(** [to_bytes ?digest t] serializes [t], tagging the container with
    [digest] (default [""]). *)
val to_bytes : ?digest:string -> t -> Bytes.t

(** Inverse of {!to_bytes}: returns the stored digest and the trace.
    Raises {!Format_error} on malformed input. *)
val of_bytes : Bytes.t -> string * t

val save : ?digest:string -> t -> string -> unit

(** [load ?expect_digest path] reads a trace container. When
    [expect_digest] is given, a file whose recorded workload digest
    differs raises {!Format_error} — that is how the cache rejects stale
    entries. *)
val load : ?expect_digest:string -> string -> t

val load_with_digest : string -> string * t

(** A cursor over one tile's trace, consumed by tile models: DBB launches
    pop block ids; each memory instruction pops its next address at DBB
    creation; accelerator calls pop parameter vectors. *)
module Cursor : sig
  type cursor

  val create : tile_trace -> cursor

  (** Next block id on the control path, advancing; [None] at the end. *)
  val next_block : cursor -> int option

  (** [next_block] without the option: -1 (and no advance) at the end.
      Allocation-free, for the per-block launch path. *)
  val next_block_id : cursor -> int

  (** Block id [k] entries ahead of the cursor without advancing
      ([lookahead 0] = what [next_block] would return). *)
  val peek_block : cursor -> int -> int option

  (** [peek_block] without the option: -1 at the end of the trace.
      Allocation-free, for per-cycle call sites. *)
  val peek_block_id : cursor -> int -> int

  (** Number of control-path entries already consumed. *)
  val blocks_consumed : cursor -> int

  (** [next_addr c ~instr_id] pops the next address recorded for that
      static memory instruction. Raises [Invalid_argument] if exhausted —
      that means simulator and trace disagree, a bug. *)
  val next_addr : cursor -> instr_id:int -> int

  val next_accel_params : cursor -> instr_id:int -> Mosaic_ir.Value.t array

  (** Destination tile of the next dynamic occurrence of a send. *)
  val next_send_dst : cursor -> instr_id:int -> int

  (** {1 Snapshots} — stream positions only; the trace data is rebuilt
      from the workload on restore. *)

  type dump

  val dump : cursor -> dump

  (** Raises [Invalid_argument] when the dump's stream counts do not match
      the cursor's trace. *)
  val restore : cursor -> dump -> unit
end
