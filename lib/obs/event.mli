(** Typed, timestamped simulation events.

    Components emit these into a {!Sink.t}; exporters ({!Trace_export})
    turn the recorded stream into Chrome trace-event JSON or CSV.
    Payloads are plain immutable data so event streams can be compared
    structurally in determinism tests.

    Contract for emitters: [cycle] is the simulated cycle at emission
    time and must be non-decreasing per component (the exporter re-sorts
    with a stable sort, so intra-cycle emission order is preserved). *)

type cache_outcome = Hit | Miss | Evict | Writeback

type payload =
  | Instr_issue of { tile : int; seq : int; cls : string }
      (** A tile issued dynamic instruction [seq] of opcode class [cls]. *)
  | Instr_retire of { tile : int; seq : int }
      (** Dynamic instruction [seq] completed on [tile]. *)
  | Cache_access of { cache : string; outcome : cache_outcome }
      (** Access to cache [cache] (e.g. ["l1.0"], ["llc"]). *)
  | Dram_row_activate of { bank : int; row : int }
  | Interleaver_handoff of { src : int; dst : int; chan : int }
  | Accel_invoke of { tile : int; kind : string; cycles : int }
      (** Accelerator invocation with a known duration in [cycles]. *)
  | Stall_sample of { tile : int; counts : int array }
      (** Cycle-accounting profiler sample: cumulative per-cause stall
          counters for [tile], indexed by {!Stall.index} (length
          {!Stall.ncauses}).  Counts are cumulative since cycle 0, so for a
          fixed tile each cause is non-negative and monotone in [cycle] —
          exporters render them as Chrome counter ("C") tracks. *)

type t = { cycle : int; payload : payload }

val name : t -> string
(** Short human-readable event name, used as the Chrome trace ["name"]. *)

val track : t -> string
(** Track (Chrome trace thread) the event belongs to: one per tile
    ("tile.N"), one per cache level, and one each for DRAM, the
    interleaver and accelerators. *)
