(** Set-associative cache model (§V-A).

    Timing-only: tags, valid/dirty bits and LRU state, no data (the paper:
    "MosaicSim is a timing simulator and therefore need not hold actual data
    in the caches; the address tags suffice"). Write-back, write-allocate.
    The miss path and MSHR bookkeeping are orchestrated by
    {!Hierarchy}, which owns the level-to-level recursion. *)

type config = {
  size_bytes : int;
  line_size : int;
  assoc : int;
  latency : int;  (** access latency in cycles *)
  mshr_size : int;  (** outstanding distinct-line misses *)
  prefetch : Prefetcher.config option;
}

(** [config] with sanity checks applied; raises [Invalid_argument] when
    geometry is inconsistent (sizes not divisible, non-power-of-two line). *)
val validate_config : config -> config

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;  (** dirty evictions *)
  mutable prefetches_issued : int;
  mutable mshr_merges : int;  (** misses coalesced onto an in-flight line *)
  mutable mshr_stalls : int;  (** misses delayed by a full MSHR *)
  mutable invalidations : int;  (** directory-initiated line drops *)
}

type t

val create : name:string -> config -> t

val name : t -> string
val config : t -> config
val stats : t -> stats

(** Number of sets (for tests). *)
val nsets : t -> int

(** [lookup t ~addr] probes the cache; on a hit the line's LRU state is
    refreshed and, when [is_write], the line is marked dirty. *)
val lookup : t -> addr:int -> is_write:bool -> [ `Hit | `Miss ]

(** Probe without updating any state (for tests and inclusive checks). *)
val probe : t -> addr:int -> bool

(** [fill t ~addr ~dirty] installs the line containing [addr], evicting the
    LRU way if the set is full. Returns what was evicted. *)
val fill :
  t -> addr:int -> dirty:bool -> [ `None | `Clean of int | `Dirty of int ]

(** [invalidate t ~addr] drops the line containing [addr] if present
    (directory-initiated invalidation); returns whether it was dirty. *)
val invalidate : t -> addr:int -> [ `Absent | `Clean | `Dirty ]

(** {1 MSHR}

    These sit on the per-access hot path, so "absent" is signalled with a
    [-1] sentinel rather than an allocated option. Stale entries (ready
    cycle already passed) are expired lazily via a min-heap of retirement
    times — no operation traverses the whole table. *)

(** Completion cycle of an in-flight miss on this line, or [-1] if none. *)
val mshr_pending : t -> addr:int -> cycle:int -> int

val mshr_insert : t -> addr:int -> ready:int -> unit

(** True when no new distinct-line miss can be accepted at [cycle]. *)
val mshr_full : t -> cycle:int -> bool

(** Earliest completion among outstanding entries (to model stalling until
    an MSHR frees up), or [-1] when none are outstanding. *)
val mshr_earliest : t -> cycle:int -> int

val prefetcher : t -> Prefetcher.t option

(** Hits over accesses; 0 before the first access. *)
val hit_rate : t -> float

(** [warm t ~addr ~is_write] installs or refreshes the line like a demand
    access but without touching stats, MSHRs or the prefetcher — the
    fast-forward touch stream uses it to keep tags/LRU/dirty architecturally
    current between detailed intervals. Returns the eviction, like
    {!fill}. *)
val warm :
  t ->
  addr:int ->
  is_write:bool ->
  [ `Hit | `Filled of [ `None | `Clean of int | `Dirty of int ] ]

(** [invalidate] without the stats bump, for architectural bookkeeping on
    the fast-forward path. *)
val drop : t -> addr:int -> [ `Absent | `Clean | `Dirty ]

(** Publish this cache's counters under "cache.<name>.*" into a metrics
    registry. *)
val publish : t -> Mosaic_obs.Metrics.t -> unit
