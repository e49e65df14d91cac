(** Compact on-disk encodings for traces (§VI-B).

    The paper reports multi-GB memory traces and ~1 GB control traces as the
    cost of accurate dynamic modeling. Two domain-specific encoders recover
    most of that space:

    - control-flow paths are dominated by loop repetition: a period-aware
      run-length code stores [(period, repetitions)] instead of every block
      id;
    - address streams are dominated by strides: zig-zag delta varints store
      a few bytes per access instead of eight.

    Both are exact (lossless) and covered by round-trip tests. The
    whole-trace binary container built on these encoders lives in
    {!Trace.save}/{!Trace.load}; the compressed-footprint accounting is
    {!Trace.compressed_bytes}. *)

(** {1 Varint primitives}

    LEB128 varints plus zig-zag folding for signed deltas, exposed so the
    trace container ({!Trace}) and the cache digest ({!Store}) frame their
    records with the same plumbing. Only non-negative values are written at
    existing call sites; [zigzag] maps a signed value to a non-negative one
    first. *)

val put_varint : Buffer.t -> int -> unit

val zigzag : int -> int
val unzigzag : int -> int

(** {1 Stream encoders} *)

(** Encode a control-flow path (block ids). *)
val encode_control : int array -> Bytes.t

val decode_control : Bytes.t -> int array

(** [decode_control_sub bytes off len] decodes the path encoded in
    [bytes] from [off] to [off + len] without copying it out; it raises
    [Invalid_argument] rather than read outside that range. *)
val decode_control_sub : Bytes.t -> int -> int -> int array

(** Encode one instruction's address stream. *)
val encode_addrs : int array -> Bytes.t

val decode_addrs : Bytes.t -> int array

(** Like {!decode_control_sub}, for an address stream. *)
val decode_addrs_sub : Bytes.t -> int -> int -> int array
