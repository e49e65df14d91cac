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

(** {1 Varint primitives and the byte sink}

    LEB128 varints plus zig-zag folding for signed deltas. Only
    non-negative values are written as varints at existing call sites;
    [zigzag] maps a signed value to a non-negative one first.

    A sink is a growable byte buffer written in place. The stream encoders,
    the trace container ({!Trace.to_bytes}) and the cache digest
    ({!Store.workload_digest}) fill one each, in one pass. *)

val zigzag : int -> int
val unzigzag : int -> int

type sink

val sink : int -> sink

val sink_length : sink -> int

(** The storage itself, of which the first [sink_length] bytes are
    written; valid until the next write. *)
val sink_buffer : sink -> Bytes.t

val sink_contents : sink -> Bytes.t

val add_varint : sink -> int -> unit
val add_char : sink -> char -> unit
val add_string : sink -> string -> unit
val add_int64_le : sink -> int64 -> unit

(** [add_framed s encode x] writes what [encode s x] writes, preceded by
    its length as a varint. *)
val add_framed : sink -> (sink -> 'a -> unit) -> 'a -> unit

(** {1 Stream encoders} *)

(** Encode a control-flow path (block ids). [add_control] writes the same
    bytes into a sink. *)
val encode_control : int array -> Bytes.t

val add_control : sink -> int array -> unit

val decode_control : Bytes.t -> int array

(** [decode_control_sub bytes off len] decodes the path encoded in
    [bytes] from [off] to [off + len] without copying it out; it raises
    [Invalid_argument] rather than read outside that range. *)
val decode_control_sub : Bytes.t -> int -> int -> int array

(** Encode one instruction's address stream. *)
val encode_addrs : int array -> Bytes.t

val add_addrs : sink -> int array -> unit

val decode_addrs : Bytes.t -> int array

(** Like {!decode_control_sub}, for an address stream. *)
val decode_addrs_sub : Bytes.t -> int -> int -> int array
