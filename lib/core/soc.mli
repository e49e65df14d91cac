(** SoC composition and simulation driver — "plug-and-play" heterogeneous
    systems (§II, §VII).

    A run takes a program, its dynamic traces, and one {!tile_spec} per
    tile; it instantiates the shared memory hierarchy, the Interleaver, and
    a graph-based tile model per tile, then steps everything cycle by cycle
    until all tiles drain. Accelerator instructions are served by the
    analytic models of [Mosaic_accel], with memory bandwidth shared among
    concurrent invocations and DMA traffic charged to DRAM. *)

type tile_spec = {
  kernel : string;  (** function this tile executes *)
  tile_config : Mosaic_tile.Tile_config.t;
}

type mem_energy = {
  l1_pj : float;
  l2_pj : float;
  llc_pj : float;
  dram_line_pj : float;
}

type config = {
  hierarchy : Mosaic_memory.Hierarchy.config;
  buffer_capacity : int;  (** inter-tile communication buffers *)
  wire_latency : int;
  noc : Noc.config option;
      (** when set, inter-tile messages ride the mesh NoC model *)
  accel_sys : Mosaic_accel.Accel_model.sys_params;
  accel_designs : (string * Mosaic_accel.Accel_model.design_point) list;
      (** design point instantiated per accelerator kind *)
  freq_ghz : float;
  mem_energy : mem_energy;
  max_cycles : int;
  cycle_skip : bool;
      (** event-driven cycle skipping (on by default): when every tile
          reports a quiescent step, the scheduler jumps straight to the
          earliest next-event cycle instead of sweeping the intervening
          no-op cycles. Results are cycle-exact either way; disable (the
          CLI's [--no-skip]) to force the naive per-cycle sweep when
          debugging the scheduler itself. *)
  shards : int;
      (** simulate one SoC across this many OCaml domains (default 1 =
          serial). Tiles are partitioned into contiguous ranges swept in
          cycle lockstep; tile-private work (pipelines, L1 hits without
          coherence or L1 prefetching) parallelizes, while operations on
          shared state (interleaver, shared caches, DRAM, directory,
          accelerators) are re-serialized in exact serial program order,
          so every result field and registry counter is bit-identical to
          [shards = 1]. Clamped to the tile count; an enabled event sink
          forces serial execution (event streams would otherwise
          interleave nondeterministically). Speedup requires free host
          cores — see {!Mosaic_util.Domain_pool.available_cores}. *)
}

val default_config : config

(** Replace the hierarchy of a config (builders often share the rest). *)
val with_hierarchy : config -> Mosaic_memory.Hierarchy.config -> config

type result = {
  cycles : int;
  stepped_cycles : int;
      (** scheduler iterations actually executed; equals [cycles] under
          the naive sweep and drops below it when cycle skipping
          fast-forwards over quiescent stretches *)
  seconds : float;  (** simulated time at [freq_ghz] *)
  instrs : int;  (** dynamic instructions completed across tiles *)
  ipc : float;
  energy_j : float;  (** cores + memory + accelerators *)
  edp : float;  (** energy-delay product, J*s *)
  host_seconds : float;  (** simulator wall-clock *)
  mips : float;  (** simulation speed in simulated MIPS *)
  tile_stats : Mosaic_tile.Core_tile.stats array;
  interleaver : Interleaver.stats;
  mem_totals : Mosaic_memory.Hierarchy.totals;
  dram : Mosaic_memory.Dram.stats;
  mao_stalls : int;
  accel_invocations : int;
  metrics : Mosaic_obs.Metrics.t;
      (** registry all components published into; source of truth for
          {!Report} and the metrics exporters *)
  profiles : Mosaic_tile.Profile.t array;
      (** per-tile cycle-accounting stores when the run was profiled
          ([Profile.null] per tile otherwise). Invariant: for every tile,
          [Profile.total] equals [cycles], with and without cycle
          skipping. *)
  sample : Sample.report option;
      (** present iff the run was sampled; [report.est_cycles] is the
          extrapolated whole-run cycle estimate ([cycles] holds only the
          detailed clock of the measured portions) *)
}

(** Raises [Invalid_argument] when tiles and trace disagree (count or
    kernels), and [Failure] if [max_cycles] elapses before all tiles
    finish.

    An enabled [sink] receives the full event stream (instruction
    issue/retire, cache hits/misses/evictions, DRAM row activations,
    interleaver handoffs, NoC hops, accelerator invocations); the default
    null sink costs nothing. [metrics] supplies the registry that tiles and
    memory publish into (a fresh one is created when absent); pass a fresh
    registry per run — metric names are registered once and duplicates
    raise.

    [profile] (default off) turns on the cycle-accounting profiler: every
    tile-cycle is attributed to one {!Mosaic_obs.Stall.cause}, per-tile
    and per-basic-block, surfaced in [result.profiles], as
    [tile.<i>.stall.<cause>] / [stall.<cause>] registry counters, and —
    when [sink] is also enabled — as periodic cumulative
    [Event.Stall_sample] counter-track events. Simulated cycle counts are
    bit-identical with profiling on or off.

    {b Checkpoints.} [checkpoint_at:n] captures a {!Snapshot.t} at the
    first visited cycle [>= n] (or at end of run when [n] is past it) and
    hands it to [on_checkpoint]; capture happens before that cycle is
    swept, so resuming reproduces the remainder bit-identically. [resume]
    restores a snapshot before the first cycle: the run continues from
    [Snapshot.cycle] and every final counter matches the straight run.
    Resume validates tile count, kernels, trace identity (dynamic
    instruction counts), profiling mode and NoC presence, raising
    [Invalid_argument] on mismatch. Snapshots work under sharded execution
    too: serial and sharded runs share one scheduler, so capture points
    and the profile state they carry coincide.

    {b Sampling.} [sample:spec] turns on interval sampling
    ({!Sample.spec}): detailed measurement alternates with functional
    fast-forward, and [result.sample] carries the extrapolated cycle and
    stall estimates. Sampled runs force [shards = 1] and cannot be
    combined with checkpoints ([Invalid_argument]). *)
val run :
  ?sink:Mosaic_obs.Sink.t ->
  ?metrics:Mosaic_obs.Metrics.t ->
  ?profile:bool ->
  ?checkpoint_at:int ->
  ?on_checkpoint:(Snapshot.t -> unit) ->
  ?resume:Snapshot.t ->
  ?sample:Sample.spec ->
  ?progress:Mosaic_obs.Progress.t ->
  config ->
  program:Mosaic_ir.Program.t ->
  trace:Mosaic_trace.Trace.t ->
  tiles:tile_spec array ->
  result

(** Convenience: homogeneous system of [n] identical tiles running the
    trace's kernel. *)
val run_homogeneous :
  ?sink:Mosaic_obs.Sink.t ->
  ?metrics:Mosaic_obs.Metrics.t ->
  ?profile:bool ->
  ?checkpoint_at:int ->
  ?on_checkpoint:(Snapshot.t -> unit) ->
  ?resume:Snapshot.t ->
  ?sample:Sample.spec ->
  ?progress:Mosaic_obs.Progress.t ->
  config ->
  program:Mosaic_ir.Program.t ->
  trace:Mosaic_trace.Trace.t ->
  tile_config:Mosaic_tile.Tile_config.t ->
  result
