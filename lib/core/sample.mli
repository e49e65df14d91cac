(** Interval sampling (SMARTS-style, by instruction count) and the
    functional fast-forward between measured intervals.

    [Soc.run ?sample] alternates detailed measurement → pipeline drain →
    functional fast-forward (trace position, cache/directory image, branch
    counters and channel occupancy advance; no timing) → detailed warmup
    (timing discarded) → measurement, then extrapolates total cycles and
    stall attribution from the measured intervals. The full simulator
    remains the exact oracle; sampled runs report their own error against
    it in the bench suite. *)

open Mosaic_ir

type spec = {
  period : int;  (** instructions (all tiles) per sampling period *)
  interval : int;  (** detailed-measurement instructions per period *)
  warmup : int;  (** detailed warmup instructions before each measurement *)
}

(** Raises [Invalid_argument] unless [period > interval + warmup > 0]. *)
val validate_spec : spec -> unit

(** Parse ["auto"] ([Ok None]: {!auto} once the run's size is known) or
    ["PERIOD[:INTERVAL[:WARMUP]]"] in instructions across tiles, missing
    fields being PERIOD/8 and PERIOD/40 (at least 1). A parsed spec passes
    {!validate_spec}; anything else is [Error] with a one-line reason. *)
val parse_spec : string -> (spec option, string) result

(** A reasonable default: ~10 periods across the run, 1/8 of each measured
    in detail, a short warmup ahead of each measurement. *)
val auto : total_instrs:int -> spec

type report = {
  est_cycles : int;
      (** detailed clock plus the extrapolated fast-forwarded stretches *)
  detailed_cycles : int;
  detailed_instrs : int;
  ff_instrs : int;  (** instructions executed functionally *)
  periods : int;  (** completed fast-forward stretches *)
  degraded : int;  (** drains that missed their deadline (ran exact) *)
  est_stalls : int array;
      (** estimated per-cause cycle totals across tiles; [[||]] when
          unprofiled *)
}

(** {1 Internal driver} — owned by [Soc.run]; exposed for tests. *)

type driver

val make_driver :
  spec:spec ->
  cores:Mosaic_tile.Core_tile.t array ->
  funcs:Func.t array ->
  profiles:Mosaic_tile.Profile.t array ->
  inter:Interleaver.t ->
  hier:Mosaic_memory.Hierarchy.t ->
  dyn_instrs:int array ->
  on_accel:(tile:int -> kind:string -> params:Value.t array -> float) ->
  profiled:bool ->
  driver

(** Run at the top of every visited cycle, before the tiles step. *)
val tick : driver -> cycle:int -> unit

(** Highest cycle the event-driven scheduler may skip to from [cycle]
    ([max_int] outside drains — during a drain the driver must observe
    quiescence promptly). *)
val skip_cap : driver -> cycle:int -> int

(** Build the report once the run completes at [cycle]. *)
val finish : driver -> cycle:int -> report
