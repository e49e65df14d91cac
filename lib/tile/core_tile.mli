(** Graph-based tile model (§II-A, §III).

    Simulates one tile executing its kernel's dynamic instruction graph:
    DBBs are launched along the control-flow trace, nodes issue when their
    data dependencies resolve subject to microarchitectural limits (issue
    width, instruction window, MAO/LSQ, functional units, live-DBB caps),
    memory operations query the shared hierarchy, and sends/receives go
    through the Interleaver callbacks. Covers in-order cores, out-of-order
    cores and pre-RTL accelerator tiles purely through {!Tile_config}. *)

(** Result handed back by an accelerator model invocation (§IV-A). *)
type accel_result = { finish_cycle : int; energy_pj : float }

(** Callbacks provided by the Interleaver / SoC. [send] returns [false]
    when the destination buffer is full (the send retries); [try_recv]
    returns the completion cycle once a matching message is available, and
    -1 while none is. *)
type comm = {
  send :
    src:int -> dst:int -> chan:int -> cycle:int -> available:int -> bool;
      (** [available] is when the payload exists ([cycle] for plain sends;
          memory completion for terminal loads) *)
  try_recv : tile:int -> chan:int -> cycle:int -> int;
  take_or_owe : tile:int -> chan:int -> bool;
      (** consume-or-commit for store-value-buffer drains *)
  accel :
    tile:int ->
    kind:string ->
    params:Mosaic_ir.Value.t array ->
    cycle:int ->
    accel_result;
  mem_access : tile:int -> cycle:int -> addr:int -> is_write:bool -> int;
      (** demand access into the memory hierarchy; routed through the SoC
          so the sharded scheduler can order cross-tile memory traffic
          (plain runs pass straight through to {!Mosaic_memory.Hierarchy.access}) *)
}

type stats = {
  mutable completed_instrs : int;
  mutable finish_cycle : int;  (** -1 while running *)
  mutable energy_pj : float;
  mutable dbbs_launched : int;
  mutable mem_accesses : int;
  issued_by_class : int array;  (** indexed by [Tile_config.class_index] *)
  branch : Branch.stats;
}

type t

(** An enabled [sink] receives [Instr_issue]/[Instr_retire] events; a
    [lat_hist] records the completion latency of every memory operation the
    tile issues; an enabled [profile] makes {!step} attribute every
    tile-cycle to a {!Mosaic_obs.Stall.cause} (see {!Profile}). All default
    to off and cost nothing when absent. *)
val create :
  ?sink:Mosaic_obs.Sink.t ->
  ?lat_hist:Mosaic_obs.Metrics.histogram ->
  ?profile:Profile.t ->
  id:int ->
  config:Tile_config.t ->
  func:Mosaic_ir.Func.t ->
  ddg:Mosaic_compiler.Ddg.t ->
  tile_trace:Mosaic_trace.Trace.tile_trace ->
  hierarchy:Mosaic_memory.Hierarchy.t ->
  comm:comm ->
  unit ->
  t

val id : t -> int
val config : t -> Tile_config.t

(** Advance the tile through global cycle [cycle]. Honors the tile's clock
    divider internally. Returns whether the tile made progress: processed a
    completion event, released a MAO slot, launched a DBB, issued a node,
    or transitioned to finished. The SoC scheduler uses this to detect
    globally quiescent cycles it may skip over. *)
val step : t -> cycle:int -> bool

(** [next_event_cycle t ~cycle] is the earliest cycle after [cycle] at
    which the tile's state can change by time alone: the head of its
    completion-event or MAO-release queues, the end of a branch
    misprediction penalty, an L1 MSHR slot freeing, or the next clock edge
    when work is pending but [cycle] is unaligned with the tile's clock
    divider. [max_int] means the tile is either finished or blocked solely
    on another component's progress (a plain int, so the scheduler's
    quiescent-cycle probe allocates nothing). Only meaningful on cycles where {!step}
    reported no progress for any tile; the scheduler jumps to the minimum
    across components. *)
val next_event_cycle : t -> cycle:int -> int

val finished : t -> bool

(** The tile's counters, [energy_pj] brought up to date. That costs a
    float allocation, so per-cycle callers read {!completed_instrs}. *)
val stats : t -> stats

(** [(stats t).completed_instrs], allocation-free. *)
val completed_instrs : t -> int

val profile : t -> Profile.t
(** The cycle-accounting store passed at creation ([Profile.null] when
    profiling is off). *)

(** MAO issue-rejection count (ordering or capacity), for reports. *)
val mao_stalls : t -> int

(** Instructions per cycle; meaningful once finished. *)
val ipc : t -> float

(** {1 Fast-forward}

    Hooks for the sampling driver: drain the pipeline with launching
    disabled, replay trace blocks functionally against {!cursor}, then
    commit the skipped work. *)

(** Enable/disable DBB launching; disabled while draining to a quiescent
    point. *)
val set_launch_enabled : t -> bool -> unit

(** No in-flight nodes, completion events, or deferred MAO releases — the
    pipeline state a functional skip can start from. *)
val quiescent : t -> bool

(** The tile's trace cursor, advanced directly by the functional
    executor. *)
val cursor : t -> Mosaic_trace.Trace.Cursor.cursor

(** Whether the control-path trace has been fully consumed. *)
val trace_done : t -> bool

(** Train the dynamic branch predictor on a fast-forwarded terminator
    (counters and history move; nothing is counted as a prediction). *)
val ff_observe_branch : t -> Mosaic_ir.Instr.t -> actual:int -> unit

(** Absorb functionally executed work into the architectural counters
    ([by_class] is indexed like [issued_by_class]; non-accelerator energy
    is derived from it) and drop cross-boundary register/control
    dependencies. *)
val ff_commit :
  t ->
  instrs:int ->
  dbbs:int ->
  mem_accesses:int ->
  by_class:int array ->
  accel_energy_pj:float ->
  unit
