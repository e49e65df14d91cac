(** Host-telemetry wiring shared by the CLI and the bench suite.

    {!Mosaic_obs.Span} knows nothing about the trace store or container
    formats; this module assembles the full host picture for one
    process: span gauges + [host.store.*] counters into a registry,
    format-version identity for [mosaicsim version] and manifests, and
    config digests for run identity. *)

val versions : unit -> (string * string) list
(** [semantics] and [trace_format] (["MSTR v1"]). *)

val config_digest : Soc.config -> tiles:Soc.tile_spec array -> string
(** Hex MD5 of the structural (Marshal, no-sharing) image of the design
    point — equal configs digest equal, independent of construction. *)

val publish_host : Mosaic_obs.Metrics.t -> unit
(** {!Mosaic_obs.Span.publish} plus [host.store.{hits,misses,bytes}]
    from {!Mosaic_trace.Store.stats}. Find-or-create; safe to call more
    than once. *)

val manifest :
  kind:string ->
  name:string ->
  ?digests:(string * string) list ->
  metrics:Mosaic_obs.Metrics.t ->
  unit ->
  Mosaic_obs.Manifest.t
(** {!publish_host} into [metrics], then {!Mosaic_obs.Manifest.make}
    with {!versions} filled in. *)
