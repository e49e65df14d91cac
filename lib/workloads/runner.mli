(** Workload instances and the host-side flow that turns them into traces.

    An instance bundles everything the toolchain needs: the program (IR +
    globals), the kernel entry point and its arguments, dataset setup, and a
    correctness check run against the interpreter's final memory — so every
    benchmark is verified functionally before its trace is trusted. *)

type t = {
  name : string;
  program : Mosaic_ir.Program.t;
  kernel : string;
  args : Mosaic_ir.Value.t list;
  setup : Mosaic_trace.Interp.t -> unit;
  check : Mosaic_trace.Interp.t -> bool;
}

(** [trace ?check instance ~ntiles] validates the program, executes it on
    [ntiles] SPMD tiles with accelerator functional models registered,
    optionally verifies the result (default [true]; raises [Failure] on a
    wrong answer), and returns the dynamic traces. *)
val trace : ?check:bool -> t -> ntiles:int -> Mosaic_trace.Trace.t

(** Like {!trace} but for heterogeneous tile/kernel assignments (DAE
    pairs). [tiles] gives (kernel, args) per tile; setup/check come from the
    instance. *)
val trace_hetero :
  ?check:bool ->
  t ->
  tiles:(string * Mosaic_ir.Value.t list) array ->
  Mosaic_trace.Trace.t

(** {1 Cached tracing}

    Same results as {!trace}/{!trace_hetero}, but routed through the
    {!Mosaic_trace.Store} trace store: the workload is interpreted at most
    once per process (domain-safe — concurrent {!run_batch} tasks
    requesting the same workload share one interpretation) and at most
    once per cache directory across processes. Dataset setup still runs
    (its memory image is part of the cache key); only interpretation is
    skipped, and the functional [check] with it — a cached trace was
    checked when it was generated. The [_full] variants also return where
    the trace came from and how long it took. *)

val trace_cached : ?check:bool -> t -> ntiles:int -> Mosaic_trace.Trace.t

val trace_cached_full :
  ?check:bool ->
  t ->
  ntiles:int ->
  Mosaic_trace.Trace.t * Mosaic_trace.Store.info

val trace_hetero_cached :
  ?check:bool ->
  t ->
  tiles:(string * Mosaic_ir.Value.t list) array ->
  Mosaic_trace.Trace.t

val trace_hetero_cached_full :
  ?check:bool ->
  t ->
  tiles:(string * Mosaic_ir.Value.t list) array ->
  Mosaic_trace.Trace.t * Mosaic_trace.Store.info

(** [cache_digest instance ~ntiles] is the trace-store key that
    {!trace_cached} uses for the same request, computed the same way —
    dataset set-up and the memory snapshot, no interpretation.
    [cache_digest_hetero] does the same for {!trace_hetero_cached}. *)
val cache_digest : t -> ntiles:int -> string

val cache_digest_hetero :
  t -> tiles:(string * Mosaic_ir.Value.t list) array -> string

(** Run the interpreter and return it (for tests that inspect memory). *)
val execute : t -> ntiles:int -> Mosaic_trace.Interp.t * Mosaic_trace.Trace.t

(** [run_batch ~jobs tasks] runs independent simulation thunks across
    [jobs] domains (serially when [jobs <= 1]) and returns their results in
    input order. Simulated results are bit-identical to a serial
    [List.map]; only host-time observations (wall seconds, MIPS) differ
    under contention. *)
val run_batch : jobs:int -> (unit -> 'a) list -> 'a list
