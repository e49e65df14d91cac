(** Incremental design-space sweeps: one exact profiled simulation plus N
    cheap re-timings ({!Retime}), with the full simulator available as
    the per-point oracle ([exact:true]) so cycle error is measured, never
    assumed.

    A sweep is described by axes over the SoC config and the tile config.
    Axis specs are strings like ["l1=8,16,32,64"]; supported axes:
    [l1]/[l2]/[llc] (cache KB), [dramlat] (SimpleDRAM min latency),
    [wire] (flat wire latency), [plm] (accelerator PLM KB), [lanes]
    (accelerator parallel lanes), [width]/[window]/[lsq]/[div] (core
    knobs), [freq] (GHz — timing-invariant by design, useful as a
    bit-exactness probe). *)

type edit = Soc.config * Mosaic_tile.Tile_config.t ->
  Soc.config * Mosaic_tile.Tile_config.t

type axis = { axis : string; points : (string * edit) list }

(** Parse ["name=v1,v2,..."]. Raises [Failure] on an unknown axis or a
    value outside its range: [wire] takes integers [>= 0], [freq] any
    finite positive number, every other axis integers [>= 1]. *)
val axis_of_spec : string -> axis

(** Cartesian product of axes; labels join as ["l1=8 llc=512"], first
    axis slowest. *)
val grid : axis list -> (string * edit) list

(** The 16-point default: [l1=8,16,32,64] x [l2=256,512,1024,2048]. *)
val default_axes : string list

type point = {
  label : string;
  retimed : Retime.point;
  exact_cycles : int option;  (** oracle cycles when [exact] was set *)
  err_pct : float option;  (** |retimed - exact| / exact, percent *)
}

type t = {
  base : Soc.result;  (** the one exact profiled anchor run *)
  prep : Retime.prep;
  points : point array;
  base_seconds : float;  (** wall clock of the profiled base simulation *)
  analyze_seconds : float;  (** skeleton extraction *)
  retime_seconds : float;  (** all re-timings together *)
  exact_seconds : float;  (** all oracle simulations (0 when not run) *)
}

(** Run a sweep over [points] (see {!grid}). The base simulation runs
    once at [cfg]/[tile_config]; every point re-times its edited config.
    With [exact:true] each point is also fully simulated and its error
    recorded. [jobs] distributes re-timings and oracle runs across
    domains; results are bit-identical at any job count. *)
val run :
  ?jobs:int ->
  ?exact:bool ->
  Soc.config ->
  tile_config:Mosaic_tile.Tile_config.t ->
  program:Mosaic_ir.Program.t ->
  trace:Mosaic_trace.Trace.t ->
  (string * edit) list ->
  t

(** Wall cost of the incremental sweep: base + analysis + re-timings. *)
val incremental_seconds : t -> float

(** [exact_seconds / incremental_seconds]; [None] unless the oracle ran. *)
val speedup : t -> float option

(** Largest per-point error (0 when the oracle did not run). *)
val max_err_pct : t -> float

val err_pct : retimed:int -> exact:int -> float
