(** The composed memory hierarchy (§V): per-tile private L1 (and optional
    private L2), an optional shared LLC, and a DRAM model.

    The hierarchy is conventionally write-back, write-allocate and
    fully-inclusive. Requests enter at the front of a tile's cache queue and
    are forwarded level to level on misses; the LLC forwards to DRAM.
    Coalescing uses each cache's MSHR; dirty evictions generate writeback
    traffic toward DRAM. Timing is resolved synchronously: [access] returns
    the cycle at which the data reaches the requesting tile, after updating
    all contention state. *)

type dram_config =
  | Simple of Dram.simple_config
  | Detailed of Dram.detailed_config

(** Directory coherence (the paper's sketched extension: "a directory
    protocol can easily be implemented by treating the Interleaver as the
    directory"). When enabled, the directory tracks sharers per line: a
    write invalidates other tiles' private copies and a read of a line
    another tile holds modified forces a flush — both charging
    [directory_latency]. Off by default, as in the paper. *)
type coherence_config = { directory_latency : int }

type config = {
  l1 : Cache.config;
  l2 : Cache.config option;  (** private per tile *)
  llc : Cache.config option;  (** shared *)
  dram : dram_config;
  coherence : coherence_config option;
}

type t

(** An enabled [sink] receives per-level [Cache_access] events (hit, miss,
    evict, writeback) and the DRAM model's row-activate events. *)
val create : ?sink:Mosaic_obs.Sink.t -> ntiles:int -> config -> t

val line_size : t -> int
val ntiles : t -> int

(** [access t ~tile ~cycle ~addr ~is_write] returns the completion cycle of
    a demand access. Raises [Invalid_argument] on a bad tile id. *)
val access : t -> tile:int -> cycle:int -> addr:int -> is_write:bool -> int

(** Whether this configuration confines L1-hit accesses to tile-private
    state: no coherence directory (writes would invalidate other tiles'
    private caches) and no L1 prefetcher (hits would issue prefetches
    into shared levels). When true, an access for which {!hits_private}
    holds commutes with all shared-state operations — the sharded
    scheduler uses this pair to run L1 hits without global ordering. *)
val private_only_config : t -> bool

(** [hits_private t ~tile ~addr] is true when the line is resident in the
    tile's L1, i.e. a demand access now would be an L1 hit touching only
    that tile's private state (under {!private_only_config}). Probes
    without updating replacement or statistics state. *)
val hits_private : t -> tile:int -> addr:int -> bool

(** Whether tile's L1 can accept a new miss right now (MSHR not full).
    Fire-and-forget operations (terminal loads, store-value-buffer drains)
    gate their issue on this, which is what throttles a decoupled access
    core to the memory system's actual miss bandwidth. *)
val can_accept : t -> tile:int -> cycle:int -> bool

(** [next_accept_cycle t ~tile ~cycle] is the earliest cycle after
    [cycle] at which {!can_accept} flips back to true when the tile's L1
    MSHR is currently full, or [-1] when it can accept now. During a
    quiescent stretch MSHR slots free only by time passing, so this is the
    exact wake cycle the event-driven scheduler needs for a tile whose
    fire-and-forget memory ops are throttled by miss bandwidth. The int
    sentinel keeps the scheduler's quiescent-cycle path allocation-free. *)
val next_accept_cycle : t -> tile:int -> cycle:int -> int

(** {!next_accept_cycle} as an option, [None] for [-1]. *)
val next_accept : t -> tile:int -> cycle:int -> int option

(** [warm t ~tile ~addr ~is_write] replays the architectural effects of a
    demand access — fills at every level an access would install into, LRU
    refreshes, dirty bits, and directory sharer/owner transitions with the
    invalidations they imply — without timing, MSHR traffic or statistics.
    The fast-forward touch stream uses it so detailed intervals resume
    against warmed caches while demand counters keep measuring only
    detailed work. *)
val warm : t -> tile:int -> addr:int -> is_write:bool -> unit

(** Direct DRAM transfer for non-coherent accelerators (§IV-B): [bytes]
    are moved as line-sized bursts, bypassing the caches. Returns the cycle
    at which the last line completes. *)
val dram_burst :
  t -> cycle:int -> addr:int -> bytes:int -> is_write:bool -> int

(** Per-cache statistics, front to back ("l1.0", "l2.0", ..., "llc"). *)
val cache_stats : t -> (string * Cache.stats) list

val dram_stats : t -> Dram.stats

(** Directory-initiated invalidation messages sent (0 when coherence is
    disabled). *)
val coherence_invalidations : t -> int

(** Aggregate counters used by the energy model. *)
type totals = {
  l1_accesses : int;
  l2_accesses : int;
  llc_accesses : int;
  dram_lines : int;
}

val totals : t -> totals

(** Aggregate hit rates per level; 0 when the level is absent or idle. *)
val l1_hit_rate : t -> float

val l2_hit_rate : t -> float
val llc_hit_rate : t -> float

(** Publish every cache ("cache.<name>.*"), the DRAM model ("dram.*") and
    the level totals ("mem.*") into a metrics registry. *)
val publish : t -> Mosaic_obs.Metrics.t -> unit
